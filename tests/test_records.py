"""Behaviour every record type keeps, whatever it is built from: it is
immutable and hashable, its repr names its fields, it takes its fields by
keyword, and a value type equals only an instance of its own class."""

import ast
import collections
import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import obstruct
from obstruct import lattice
from obstruct import manifolds as mf

TK = obstruct.TorusKnot

# one instance per public record class, built by keyword in field order
PUBLIC = {
    "CheckerboardGraph": dict(vertex_count=3, edges=((0, 1, 1), (0, 2, 1), (1, 2, 2))),
    "Changemaker": dict(entries=(1, 1, 2)),
    "EMKnot": dict(l=2, m=2, n=0, p=0),
    "Embedding": dict(sigma=obstruct.Changemaker((1, 1)), vectors=((1, -1),)),
    "Factorization": dict(value=12, factors=((2, 2), (3, 1))),
    "GramMatrix": dict(entries=((-2, 1), (1, -2))),
    "IrrepWitness": dict(g=1, d=3, a=5, q=4, phi_over_pi=Fraction(2, 3), k_abs=3),
    "IteratedTorusKnot": dict(base=(3, 2), cables=((13, 2),)),
    "ResidueSet": dict(kind="Sk", k=2),
    "Splice": dict(first=TK(3, 2), second=TK(5, 2)),
    "TorusKnot": dict(p=5, q=3),
}

# records outside __all__ that the benchmark builds: the first three by
# keyword, ObstructionResult by position
BENCH_BUILT = {
    (mf, "ShortcutReport"): dict(
        shape="equal-pair", set_name="Sprime", n=6, in_set=True, indices_exceed_2=None
    ),
    (mf, "ChangemakerReport"): dict(
        status="witness", form_name="L35-white", slope=-226, sigma=(1, 1), vectors=((1, -1),)
    ),
    (mf, "SpliceVerdict"): dict(
        splice=mf.Splice.of(2, 3, 2, -3),
        h1=37,
        nonintegral=None,
        integral_plus=mf.IntegralObstruction(1, 37, 6, 31, None),
        integral_minus=mf.IntegralObstruction(-1, 37, 31, 6, 8),
        shortcut=None,
        changemaker=None,
        overall="inconclusive",
        assumptions=(),
    ),
    (lattice, "ObstructionResult"): dict(status="obstructed", witnesses=()),
}

# the public records that are pure results, not validated value types
RESULT_RECORDS = {"IrrepWitness"}


def public_record_classes():
    return {
        name: obj
        for name in obstruct.__all__
        if inspect.isclass(obj := getattr(obstruct, name))
        and not issubclass(obj, BaseException)
    }


def test_every_public_record_has_a_sample():
    assert set(public_record_classes()) == set(PUBLIC)


def test_every_public_name_has_a_caller():
    """The library or the benchmark, not only the tests, loads every public name."""
    root = Path(__file__).resolve().parents[1]
    files = [f for f in (root / "src" / "obstruct").glob("*.py") if f.name != "__init__.py"]
    files += [f for f in (root / "bench").glob("*.py") if f.name != "test_bench.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(obstruct.__all__) - used) == []


def all_samples():
    for name, kwargs in PUBLIC.items():
        yield name, getattr(obstruct, name), kwargs
    for (module, name), kwargs in BENCH_BUILT.items():
        yield name, getattr(module, name), kwargs


SAMPLES = list(all_samples())
IDS = [name for name, _, _ in SAMPLES]


@pytest.mark.parametrize("name,cls,kwargs", SAMPLES, ids=IDS)
def test_record_is_immutable(name, cls, kwargs):
    x = cls(**kwargs)
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("name,cls,kwargs", SAMPLES, ids=IDS)
def test_record_is_hashable(name, cls, kwargs):
    x, y = cls(**kwargs), cls(**kwargs)
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("name,cls,kwargs", SAMPLES, ids=IDS)
def test_record_survives_copy_and_pickle(name, cls, kwargs):
    x = cls(**kwargs)
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("name,cls,kwargs", SAMPLES, ids=IDS)
def test_record_repr_names_fields(name, cls, kwargs):
    x = cls(**kwargs)
    fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in kwargs)
    assert repr(x) == f"{name}({fields})"


def test_private_slot_is_not_a_field():
    """GramMatrix keeps its elimination in the slot _rows, which equality,
    hash, repr, copy and pickle leave out."""
    gram = obstruct.GramMatrix(((-2, 1), (1, -2)))
    assert "_rows" in obstruct.GramMatrix.__slots__
    assert obstruct.GramMatrix._fields == ("entries",)
    assert "_rows" not in repr(gram)


@pytest.mark.parametrize("name,cls,kwargs", SAMPLES, ids=IDS)
def test_record_takes_fields_positionally_too(name, cls, kwargs):
    assert cls(*kwargs.values()) == cls(**kwargs)


VALUE_TYPES = [s for s in SAMPLES if s[0] in PUBLIC and s[0] not in RESULT_RECORDS]


@pytest.mark.parametrize("name,cls,kwargs", VALUE_TYPES, ids=[s[0] for s in VALUE_TYPES])
def test_value_type_equality_is_type_strict(name, cls, kwargs):
    x = cls(**kwargs)
    values = tuple(getattr(x, f) for f in kwargs)
    assert x != values and values != x
    other_tuple = collections.namedtuple(name, list(kwargs))(*values)
    assert x != other_tuple and other_tuple != x
    sub = type(name, (cls,), {})(**kwargs)
    assert x != sub and sub != x


def test_knots_and_lens_spaces_never_compare_equal():
    assert TK(5, 3) != mf.Lens(5, 3)
    assert mf.Lens(5, 3) != TK(5, 3)
    assert TK(5, 3) != (5, 3)
    assert len({TK(5, 3), mf.Lens(5, 3)}) == 2


def test_only_splice_verdict_is_a_dataclass():
    """Each @dataclass costs about 1 ms of start-up on every CLI call.

    SpliceVerdict stays one because the benchmark's own tests rebuild
    verdicts with dataclasses.replace; every other record must be a
    NamedTuple or a subclass of the slotted value-type base."""
    dataclasses_found = set()
    names = [m.name for m in pkgutil.iter_modules(obstruct.__path__) if m.name != "__main__"]
    for module in [obstruct] + [importlib.import_module(f"obstruct.{n}") for n in names]:
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if hasattr(obj, "__dataclass_fields__"):
                    dataclasses_found.add(f"{module.__name__}.{name}")
    assert dataclasses_found == {"obstruct.manifolds.SpliceVerdict"}, (
        "only SpliceVerdict may be a dataclass (bench/test_bench.py calls "
        "dataclasses.replace on it); each extra @dataclass adds about 1 ms to "
        f"every CLI call: {sorted(dataclasses_found)}"
    )


def test_obstruction_result_is_not_a_tuple():
    # the benchmark tells a traced (result, counts) pair from a result this way
    assert not isinstance(lattice.ObstructionResult("obstructed", ()), tuple)
