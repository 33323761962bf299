"""Package-wide invariants: internal checks survive ``python -O``; memos are bounded;
no private helper is left without a caller and no public name without an entry point
that reaches it; the classical side stays exact; the public constructors refuse bad
input with pinned messages."""

import ast
import dataclasses
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import epistrict
from epistrict import (
    RATIONALS,
    AffineSubspace,
    EpistemicState,
    Matrix,
    PhaseSpace,
    PrimeField,
    SharpMeasurement,
    SymplecticAffine,
)

SOURCES = sorted(Path(epistrict.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def test_package_has_no_bare_asserts():
    # ``assert`` statements are stripped under -O; invariants raise AssertionError.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_every_lru_cache_is_bounded():
    # Every functools.lru_cache wrapper defined in the package's modules, by name.
    wrappers = {}
    for info in pkgutil.iter_modules(epistrict.__path__):
        module = importlib.import_module(f"epistrict.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__:
                wrappers[f"{module.__name__}.{name}"] = obj
    assert {"epistrict.symplectic._euclidean_complement", "epistrict.symplectic.is_isotropic",
            "epistrict.epistemic._known_image", "epistrict.epistemic._outcome_span"} <= set(wrappers)
    unbounded = [name for name, fn in wrappers.items() if fn.cache_info().maxsize is None]
    assert unbounded == []


def _defined_and_used(paths) -> tuple:
    """Each module-level function or class of ``paths`` as ``(file name, name)``, and
    every name that ``paths`` reference (as an ``ast.Name``, an ``ast.Attribute`` or an
    imported name) outside the definition of that name."""
    defined, used = set(), set()
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(top))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, top.name))
                names.discard(top.name)
            used |= names
    return defined, used


def test_every_private_helper_has_a_caller():
    # A module-level ``_name`` function or class must be referenced somewhere in the
    # package outside its own body; an orphaned helper is dead code.
    defined, used = _defined_and_used(SOURCES)
    private = {(file, name) for file, name in defined
               if name.startswith("_") and not name.startswith("__")}
    orphans = sorted(f"{file}:{name}" for file, name in private if name not in used)
    assert private and orphans == []


def test_every_public_name_is_exported_or_reached():
    # A public module-level function or class is in ``epistrict.__all__`` or is
    # referenced outside its own body in the package, the demos or perfbench; one that
    # only tests call is dead code.  The one exception, ``quadrature_projector``, is the
    # reference that the tests of ``quantum._joint_projectors`` compare against.
    entry_points = sorted(REPO.glob("demos/*.py")) + sorted(REPO.glob("perfbench/*.py"))
    defined, used = _defined_and_used(SOURCES)
    used |= _defined_and_used(entry_points)[1]
    allowed = set(epistrict.__all__) | {"quadrature_projector"}
    public = {(file, name) for file, name in defined if not name.startswith("_")}
    unreached = sorted(f"{file}:{name}" for file, name in public
                       if name not in used and name not in allowed)
    assert entry_points and public
    assert unreached == []


def _methods_and_reads(paths) -> tuple:
    """Each public method of a module-level class of ``paths`` as ``(module, class,
    method)``, and every attribute that ``paths`` read outside the method of that name,
    with the names a class body binds outside its methods (``__getitem__ = probability``).
    A method is reached through an attribute: a bare name is some local variable."""
    methods, reads = set(), set()
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            items = top.body if isinstance(top, ast.ClassDef) else [top]
            for item in items:
                nodes = list(ast.walk(item))
                names = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                if isinstance(item, ast.FunctionDef) and item is not top:
                    names.discard(item.name)
                    if not item.name.startswith("_"):
                        methods.add((path.stem, top.name, item.name))
                elif item is not top:
                    names |= {n.id for n in nodes if isinstance(n, ast.Name)}
                reads |= names
    return methods, reads


#: Public methods that only tests call.  Each is an operation of its type, not an
#: alias of an expression: the group law and inverse of affine maps and of matrices, a
#: label's value tuple, a distribution's determinism, the position quadrature of a
#: degree of freedom and a value report's verdict.
TEST_ONLY_OPERATIONS = {
    ("SymplecticAffine", "compose"), ("SymplecticAffine", "inverse"),
    ("Matrix", "inverse"), ("SharpMeasurement", "values_at"),
    ("OutcomeDistribution", "is_deterministic"), ("QuadratureFunctional", "position"),
    ("ValueReport", "consistent"),
}


def test_every_public_method_is_reached_or_an_operation():
    # A public method of a package class is read as an attribute outside its own body
    # in the package, the demos or perfbench, or it is one of the operations above; one that
    # only tests call is an alias to inline at its call sites.  A method that overrides
    # its base class's (``_Parser.error``) is called by the base, and dunders are private.
    entry_points = sorted(REPO.glob("demos/*.py")) + sorted(REPO.glob("perfbench/*.py"))
    methods, reads = _methods_and_reads(SOURCES)
    reads |= _methods_and_reads(entry_points)[1]

    def overrides(module, cls, name):
        bases = getattr(importlib.import_module(f"epistrict.{module}"), cls).__mro__[1:]
        return any(hasattr(base, name) for base in bases)

    unreached = sorted(f"{module}.py:{cls}.{name}" for module, cls, name in methods
                       if name not in reads and (cls, name) not in TEST_ONLY_OPERATIONS
                       and not overrides(module, cls, name))
    assert {("cli", "_Parser", "error"), ("epistemic", "OutcomeDistribution", "items")} \
        <= methods
    assert unreached == []


def test_symplectic_layer_does_not_call_its_public_product():
    # Inside ``symplectic`` every pairwise product goes through ``_symp`` or the
    # ``_pair_products`` kernel on canonical vectors; ``symp_inner`` is only the public
    # entry that coerces and validates its input.
    path = Path(epistrict.__file__).parent / "symplectic.py"
    found = [f"symplectic.py:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Name) and node.id == "symp_inner"]
    assert found == []


def test_phase_space_vectors_are_coerced_in_one_place():
    # Outside ``linalg``, which knows nothing of phase spaces, a raw vector argument
    # is coerced and length-checked only by ``PhaseSpace.vector``.
    found, homed = [], 0
    for path in SOURCES:
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = set()
        for top in tree.body:
            if path.name == "symplectic.py" and getattr(top, "name", None) == "PhaseSpace":
                home = {id(n) for item in top.body if getattr(item, "name", None) == "vector"
                        for n in ast.walk(item)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "vec"):
                if id(node) in home:
                    homed += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [] and homed == 1


def test_classical_modules_use_no_floats():
    # The exact side computes in ints and Fractions: no numpy, no float or complex
    # literal.  numpy and floats belong to the quantum and Wigner layers.
    found = []
    for name in ("fields.py", "linalg.py", "symplectic.py", "epistemic.py", "exponents.py"):
        path = Path(epistrict.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "numpy" for m in modules):
                found.append(f"{name}:{node.lineno} imports numpy")
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{name}:{node.lineno} literal {node.value!r}")
    assert found == []


def test_exact_layers_import_nothing_from_the_quantum_side():
    # The exact layers, ``render`` and ``scenario`` stand below the array layers and
    # the other entry points: none of them imports numpy or a module that does, so
    # ``simulate``'s quantum statistics come from the exact Weyl exponents, never from
    # density matrices compared under a tolerance.
    lower = ("fields.py", "linalg.py", "symplectic.py", "epistemic.py", "exponents.py",
             "render.py", "scenario.py")
    upper = {"quantum", "wigner", "stabilizer", "acceptance", "scenario", "cli", "numpy"}
    found = []
    for name in lower:
        path = Path(epistrict.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # Joined with each imported name, so ``from . import quantum`` counts.
                modules = [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} imports {module}" for module in modules
                      if set(module.split(".")) & upper]
    assert found == []


def test_no_function_or_method_imports():
    # Every import sits at the head of its module, where a module's dependencies can be
    # read at a glance; an import inside a function hides one until the call runs.
    found = sorted({f"{path.name}:{node.lineno}"
                    for path in SOURCES
                    for top in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(top)
                    if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert SOURCES and found == []


def test_every_exact_value_type_is_canonical_by_construction():
    # A frozen dataclass of the exact layers has one constructor, and it canonicalizes:
    # without a ``__post_init__`` the raw dataclass constructor would accept anything.
    exact = {"epistrict.linalg", "epistrict.symplectic", "epistrict.epistemic"}
    exported = (getattr(epistrict, name) for name in epistrict.__all__)
    types = [obj for obj in exported
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)
             and obj.__module__ in exact and obj.__dataclass_params__.frozen]
    unchecked = sorted(t.__name__ for t in types if "__post_init__" not in vars(t))
    assert {"Matrix", "AffineSubspace", "SymplecticAffine", "EpistemicState",
            "SharpMeasurement"} <= {t.__name__ for t in types}
    assert unchecked == []


_Z3, _Z5 = PrimeField(3), PrimeField(5)
_D3, _D3_2 = PhaseSpace(_Z3, 1), PhaseSpace(_Z3, 2)
_Q_POINT = (TypeError, "floats are not exact; pass int, Fraction or 'num/den' str")


def _sub(rows, field=_Z3):
    return AffineSubspace.span(field, rows, ambient=len(rows[0]))


def _z3_entry(value):
    return TypeError, f"prime-field element must be an int, got {value!r}"


#: ``(call, exception type, message)`` per refused input at the public boundary.
_REFUSED = {
    "AffineSubspace-wrong-length": (lambda: AffineSubspace(_Z3, 2, ((1, 0, 0),)),
                                    ValueError, "basis row length does not match "
                                    "ambient dimension"),
    "AffineSubspace-wrong-length-offset": (lambda: AffineSubspace(_Z3, 2, (), (1,)),
                                           ValueError, "offset length does not match "
                                           "ambient dimension"),
    "AffineSubspace-float": (lambda: AffineSubspace(_Z3, 2, ((1.0, 0),)), *_z3_entry(1.0)),
    "AffineSubspace-float-over-Q": (lambda: AffineSubspace(RATIONALS, 2, ((0.5, 0),)),
                                    *_Q_POINT),
    "AffineSubspace-bool": (lambda: AffineSubspace(_Z3, 2, ((True, 0),)), *_z3_entry(True)),
    "AffineSubspace-bool-over-Q": (lambda: AffineSubspace(RATIONALS, 2, ((True, 0),)),
                                   TypeError, "rational element must be an int, Fraction "
                                   "or 'num/den' str, got True"),
    "AffineSubspace-ragged": (lambda: AffineSubspace(_Z3, 2, ((1, 0), (1,))),
                              ValueError, "basis row length does not match ambient "
                              "dimension"),
    "AffineSubspace-other-field": (lambda: AffineSubspace(_Z3, 2, ((Fraction(1, 3), 0),)),
                                   ValueError, "1/3 has no value in Z_3: its denominator "
                                   "is divisible by 3"),
    "Matrix-wrong-length": (lambda: Matrix.identity(_Z3, 2).matvec((1, 0, 0)),
                            ValueError, "product of a (2, 2) matrix and a vector of "
                            "length 3"),
    "Matrix-float": (lambda: Matrix(_Z3, ((1.0, 0), (0, 1))), *_z3_entry(1.0)),
    "Matrix-float-over-Q": (lambda: Matrix(RATIONALS, ((0.5, 0), (0, 1))), *_Q_POINT),
    "Matrix-bool": (lambda: Matrix(_Z3, ((True, 0), (0, 1))), *_z3_entry(True)),
    "Matrix-ragged": (lambda: Matrix(_Z3, ((1, 0), (0,))), ValueError, "ragged rows"),
    "Matrix-other-field": (lambda: Matrix.identity(_Z3, 2) @ Matrix.identity(_Z5, 2),
                           ValueError, "matrix is over PrimeField(5), but the left "
                           "factor is over PrimeField(3)"),
    "EpistemicState-wrong-length": (lambda: EpistemicState(_D3, _sub([(1, 0)]), (1, 0, 0)),
                                    ValueError, "valuation of length 3 on a phase space "
                                    "of dimension 2n = 2"),
    "EpistemicState-float": (lambda: EpistemicState(_D3, _sub([(1, 0)]), (1.0, 0)),
                             *_z3_entry(1.0)),
    "EpistemicState-bool": (lambda: EpistemicState(_D3, _sub([(1, 0)]), (True, 0)),
                            *_z3_entry(True)),
    "EpistemicState-non-isotropic": (lambda: EpistemicState(_D3, _sub([(1, 0), (0, 1)])),
                                     ValueError, "known quadratures must span an "
                                     "isotropic linear subspace"),
    "EpistemicState-affine": (lambda: EpistemicState(
        _D3, AffineSubspace(_Z3, 2, ((1, 0),), (0, 1))),
        ValueError, "known quadratures must span an isotropic linear subspace"),
    "EpistemicState-other-field": (lambda: EpistemicState(_D3, _sub([(1, 0)], _Z5)),
                                   ValueError, "subspace is over PrimeField(5), but the "
                                   "phase space is over PrimeField(3)"),
    "EpistemicState-other-ambient": (lambda: EpistemicState(_D3, _sub([(1, 0, 0, 0)])),
                                     ValueError, "subspace has ambient dimension 4, but "
                                     "the phase space has dimension 2"),
    "SymplecticAffine-wrong-length": (lambda: SymplecticAffine(
        _D3, Matrix.identity(_Z3, 2), (1, 0, 0)),
        ValueError, "displacement of length 3 on a phase space of dimension 2n = 2"),
    "SymplecticAffine-float": (lambda: SymplecticAffine(
        _D3, Matrix.identity(_Z3, 2), (0.5, 0)), *_z3_entry(0.5)),
    "SymplecticAffine-bool": (lambda: SymplecticAffine(
        _D3, Matrix.identity(_Z3, 2), (False, 0)), *_z3_entry(False)),
    "SymplecticAffine-non-symplectic": (lambda: SymplecticAffine(
        _D3, Matrix(_Z3, ((1, 1), (1, 1)))),
        ValueError, "matrix does not preserve the symplectic form"),
    "SymplecticAffine-wrong-shape": (lambda: SymplecticAffine(_D3, Matrix.identity(_Z3, 4)),
                                     ValueError, "matrix does not preserve the "
                                     "symplectic form"),
    "SymplecticAffine-other-field": (lambda: SymplecticAffine(
        _D3, Matrix.identity(_Z5, 2)),
        ValueError, "matrix is over PrimeField(5), but the phase space is over "
        "PrimeField(3)"),
    "SharpMeasurement-wrong-length": (lambda: SharpMeasurement.of_functional(_D3, (1, 0, 0)),
                                      ValueError, "basis row length does not match "
                                      "ambient dimension"),
    "SharpMeasurement-float": (lambda: SharpMeasurement.of_functional(_D3, (1.0, 0)),
                               *_z3_entry(1.0)),
    "SharpMeasurement-bool": (lambda: SharpMeasurement.of_functional(_D3, (True, 0)),
                              *_z3_entry(True)),
    "SharpMeasurement-non-isotropic": (lambda: SharpMeasurement(
        _D3_2, _sub([(1, 0, 0, 0), (0, 1, 0, 0)])),
        ValueError, "measured functionals must span an isotropic linear subspace"),
    "SharpMeasurement-other-field": (lambda: SharpMeasurement(_D3, _sub([(1, 0)], RATIONALS)),
                                     ValueError, "subspace is over RationalField(), but "
                                     "the phase space is over PrimeField(3)"),
    "SharpMeasurement-other-ambient": (lambda: SharpMeasurement(_D3, _sub([(1, 0, 0, 0)])),
                                       ValueError, "subspace has ambient dimension 4, but "
                                       "the phase space has dimension 2"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_public_constructors_refuse_bad_input_with_a_pinned_message(case):
    # Validation happens once, at the public boundary: the private construction
    # routes the engine uses on its own results must leave these refusals as they are.
    call, kind, message = _REFUSED[case]
    with pytest.raises(Exception) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


def test_fixed_limits_are_not_parameters():
    # Size caps, tolerances and the d = 2 point-operator net are fixed, one value each.
    # The one settable cap is the Hilbert-space bound, which the CLI's --max-dim lowers.
    fixed = {"cap", "tol", "tolerance", "max_triples", "factors", "net"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                name = getattr(node, "name", "<lambda>")
                for arg in sorted(names & fixed):
                    if (path.name, name, arg) != ("exponents.py", "hilbert_dim", "cap"):
                        found.append(f"{path.name}:{node.lineno} {name}({arg})")
    assert found == []


def test_stabilizer_expectations_take_no_tolerance():
    # Tr(W(m) rho) is an exact exponent in ``exponents`` and ``stabilizer``: only the
    # witness scan's dense re-verification reads PROB_TOL, and no float is rounded
    # back to an integer.
    found = []
    for name in ("exponents.py", "stabilizer.py"):
        path = Path(epistrict.__file__).parent / name
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                ident = getattr(node, "id", getattr(node, "attr", None))
                if ident == "PROB_TOL" and getattr(top, "name", None) != "scan_for_witness":
                    found.append(f"{name}:{node.lineno} PROB_TOL")
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", None)) == "round":
                    found.append(f"{name}:{node.lineno} round(")
    assert found == []


def _numpy_name(func) -> str:
    """``name`` for a call written ``np.name(...)``, else the empty string."""
    is_np = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "np"
    return func.attr if is_np else ""


def test_point_order_and_roots_of_unity_live_in_three_helpers():
    # The two conventions every array layer shares: the place values of the point
    # order (``d ** np.arange(...)``) appear only in quantum's ``_digits`` and
    # ``_codes``, and the root of unity (``np.exp(2j ...)``) only in ``_roots``.
    homes = {"_digits", "_codes", "_roots"}
    found, seen = [], set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                place = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                         and isinstance(node.right, ast.Call)
                         and _numpy_name(node.right.func) == "arange")
                root = (isinstance(node, ast.Call) and _numpy_name(node.func) == "exp"
                        and any(isinstance(c, ast.Constant) and c.value == 2j
                                for arg in node.args for c in ast.walk(arg)))
                if not (place or root):
                    continue
                name = getattr(top, "name", None)
                if path.name == "quantum.py" and name in homes:
                    seen.add(name)
                else:
                    found.append(f"{path.name}:{node.lineno} in {name}")
    assert found == [] and seen == homes
