"""Guard: every keyword option of the public API is set by some caller.

An option that every caller leaves at its default is a constant that nothing
tests at any other value. This test parses `src/`, `tests/` and `perfbench/`
with `ast` and asserts that each keyword parameter (one with a default) of a
function or method named in a module's `__all__` is passed by at least one
call: by name, or by filling its position. A literal equal to the default
does not count, as passing the default sets nothing. perfbench calls library
functions through `_call(module, "name", *args, **kwargs)`, which counts as a
call to `name`. Calls are matched by the callee's name only, so a call to
another function of the same name also counts.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jacobi_watson"
SCANNED = ("src", "tests", "perfbench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


_NOT_LITERAL = object()


def _literal(node: ast.expr):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NOT_LITERAL


def _options(fn: ast.FunctionDef, is_method: bool):
    """(name, position or None, default) of every parameter that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    ):
        positional = positional[1:]
    first_default = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default:
            yield arg.arg, i, _literal(fn.args.defaults[i - first_default])
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None, _literal(default)


def public_options() -> list[tuple[str, str, str, int | None, object]]:
    """(module, function, parameter, position, default) for the public API."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        public = _public_names(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                found += [(path.stem, node.name, *o) for o in _options(node, False)]
            elif isinstance(node, ast.ClassDef) and node.name in public:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        name = f"{node.name}.{fn.name}"
                        found += [(path.stem, name, *o) for o in _options(fn, True)]
    return found


def _callee(call: ast.Call):
    """The called name and the arguments it receives."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
    args = call.args
    if (
        name == "_call"
        and len(args) >= 2
        and isinstance(args[1], ast.Constant)
        and isinstance(args[1].value, str)
    ):
        return args[1].value, args[2:]
    return name, args


def observed_calls() -> dict[str, list[tuple[list, dict]]]:
    """Callee name -> (positional values, keyword values) of every call, each
    value the literal passed or _NOT_LITERAL. Positions after a starred
    argument are unknown and left out."""
    calls = defaultdict(list)
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    name, args = _callee(node)
                    if name is not None:
                        pos = []
                        for a in args:
                            if isinstance(a, ast.Starred):
                                break
                            pos.append(_literal(a))
                        kws = {k.arg: _literal(k.value) for k in node.keywords if k.arg}
                        calls[name].append((pos, kws))
    return calls


def unset_options() -> list[str]:
    calls = observed_calls()
    unset = []
    for module, qualname, param, position, default in public_options():
        passed = [
            kws[param] if param in kws else pos[position]
            for pos, kws in calls.get(qualname.rsplit(".", 1)[-1], [])
            if param in kws or (position is not None and len(pos) > position)
        ]
        if not any(v is _NOT_LITERAL or v != default for v in passed):
            unset.append(f"{module}.{qualname}({param}=)")
    return unset


def test_the_scan_sees_the_public_api():
    names = {(m, f) for m, f, *_ in public_options()}
    assert ("abel", "abel_mean") in names
    assert ("measure", "WeightedMeasure.quadrature_rule") in names
    assert ("harmonic", "hl_maximal") in names


def test_every_public_keyword_option_is_set_by_some_caller():
    assert unset_options() == []
