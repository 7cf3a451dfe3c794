"""The layout of the package source: src serves the commands, so every
definition in it has a caller in it."""

import ast
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mustafin"

# definitions with no caller in src, each for its reason
NO_SRC_CALLER = {
    # bench/spans.py wraps both by name
    "integral_model",
    "interreduce",
    # no command runs it yet; ROADMAP item 8 decides its fate
    "curve_cover_check",
}


def _is_click_command(node) -> bool:
    """Decorated ``@<group>.command(..)`` or ``@click.group(..)``."""
    return any(
        isinstance(dec, ast.Call)
        and isinstance(dec.func, ast.Attribute)
        and dec.func.attr in ("command", "group")
        for dec in node.decorator_list
    )


def _definitions(tree):
    """(qualified name, name, first line, last line) of every module-level
    function or class and every method of a module-level class, but the
    dunders and the click commands; the lines span the decorators too."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        found = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, defs)]
        for qual, n in found:
            if (n.name.startswith("__") and n.name.endswith("__")) or _is_click_command(n):
                continue
            first = min([n.lineno] + [dec.lineno for dec in n.decorator_list])
            yield qual, n.name, first, n.end_lineno


def definitions_without_a_src_caller(src: pathlib.Path) -> list:
    """Qualified names of the definitions in ``src/*.py`` whose name occurs
    as a name token of src code nowhere outside their own definition.
    Strings and comments are not name tokens, so they do not count."""
    uses, defs = {}, []
    for path in sorted(src.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME:
                    uses.setdefault(tok.string, []).append((path, tok.start[0]))
        tree = ast.parse(path.read_text(), str(path))
        defs += [(path, *d) for d in _definitions(tree)]
    return sorted(
        qual
        for path, qual, name, first, last in defs
        if all(p == path and first <= line <= last for p, line in uses.get(name, ()))
    )


def test_every_src_definition_has_a_src_caller():
    assert definitions_without_a_src_caller(SRC) == sorted(NO_SRC_CALLER)
