"""Value records: every ``Record`` class behaves as the frozen dataclass it
replaces, which ``dataclasses.make_dataclass`` builds here as the oracle."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import toricsym.acceptance  # noqa: F401  (every module with a record class)
from toricsym.fan import Fan, Lattice, build_surface_fan
from toricsym.intlin import FGAbelianGroup, IntMatrix
from toricsym.qfield import QuadElement
from toricsym.record import Record
from toricsym.symmetry import GaloisDatum, GroupAction, action_from_generators, fan_automorphisms

RECORDS = sorted(
    (cls for cls in Record.__subclasses__() if cls.__module__.startswith("toricsym.")), key=lambda cls: cls.__name__
)

# Field values that each class's __post_init__ accepts; any other class
# takes one string per field.
VALID = {
    "IntMatrix": (((1, 2), (3, 4)),),
    "FGAbelianGroup": (2, (2, 4)),
    "Lattice": ("standard", 3),
    "GaloisDatum": (IntMatrix(((0, 1), (1, 0))),),
    "QuadElement": (5, Fraction(1, 2), Fraction(-3)),
    "FieldDescriptor": ("Q", "rationals", None, True, False, None),
}

# The defaults of the dataclass fields, by class.
DEFAULTS = {
    "FGAbelianGroup": {"torsion": ()},
    "GroupAction": {"transversals": None},
    "TerminalLabel": {"parameter": None},
    "MaxDegreeEntry": {"infinite_family": False},
    "FieldDescriptor": {"d": None, "star_clause2": True, "star_clause3": True, "witness": None},
    "CriterionResult": {"failures": (), "seconds": 0.0},
}

VALUE_RECORDS = [cls for cls in RECORDS if cls is not GroupAction]


def values_of(cls):
    return VALID.get(cls.__name__) or tuple(f"{cls.__name__}.{name}" for name in cls._fields)


def oracle_of(cls):
    """The frozen dataclass with the fields and defaults of ``cls``."""
    defaults = DEFAULTS.get(cls.__name__, {})
    fields = [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else f for f in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def test_every_record_class_is_covered():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == 19 and set(VALID) | set(DEFAULTS) <= names
    assert all(isinstance(values_of(cls), tuple) and len(values_of(cls)) == len(cls._fields) for cls in RECORDS)


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
class TestValueRecords:
    def test_equality_and_hash_by_value(self, cls):
        values = values_of(cls)
        a, b = cls(*values), cls(*copy.deepcopy(values))
        assert a == b and not a != b and hash(a) == hash(b)
        if type(a).__hash__ is Record.__hash__:
            assert hash(a) == hash(values) == hash(oracle_of(cls)(*values))
        other = type("Other", (Record,), {"__slots__": cls._fields})(*values)
        assert a != other and other != a and not a == other

    def test_a_changed_field_is_unequal(self, cls):
        if cls.__name__ in VALID:
            return
        values = values_of(cls)
        for i in range(len(values)):
            changed = values[:i] + ("changed",) + values[i + 1 :]
            assert cls(*values) != cls(*changed)

    def test_repr_is_the_dataclass_repr(self, cls):
        values = values_of(cls)
        assert repr(cls(*values)) == repr(oracle_of(cls)(*values))

    def test_fields_cannot_be_set_or_deleted(self, cls):
        record = cls(*values_of(cls))
        for name in (*cls._fields, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert cls(*values_of(cls)) == record

    def test_positional_keyword_and_default_construction(self, cls):
        values = values_of(cls)
        by_name = dict(zip(cls._fields, values))
        record = cls(*values)
        assert cls(**by_name) == record == cls(*values[:1], **dict(list(by_name.items())[1:]))
        defaults = DEFAULTS.get(cls.__name__, {})
        required = [name for name in cls._fields if name not in defaults]
        fallback, oracle = cls(*values[: len(required)]), oracle_of(cls)(*values[: len(required)])
        assert all(getattr(fallback, name) == value for name, value in defaults.items())
        assert fallback._values(fallback) == tuple(getattr(oracle, name) for name in cls._fields)
        with pytest.raises(TypeError):
            cls(*values[: len(required) - 1])
        with pytest.raises(TypeError):
            cls(*values, unknown=1)
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})

    def test_copy_and_pickle(self, cls):
        record = cls(*values_of(cls))
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: IntMatrix(((1, 2), (3,))), "ragged rows"),
        (lambda: IntMatrix(entries=((1, 2), (3,))), "ragged rows"),
        (lambda: FGAbelianGroup(1, (2, 3)), "divisibility chain"),
        (lambda: FGAbelianGroup(free_rank=-1), "negative free rank"),
        (lambda: GaloisDatum(IntMatrix(((1, 1), (0, 1)))), "square to the identity"),
        (lambda: Lattice("bogus", 2), "unknown lattice kind"),
        (lambda: Lattice(kind="rootA2", rank=3), "rootA2 has rank 2"),
    ],
)
def test_post_init_refuses_bad_fields(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_post_init_normalises_fields():
    matrix = IntMatrix([[1, 2], [3, 4]])
    assert matrix.entries == ((1, 2), (3, 4)) and type(matrix.entries[0]) is tuple
    assert QuadElement(None, 1, 0).a == Fraction(1) and type(QuadElement(None, 1, 0).b) is Fraction


class TestGroupAction:
    def test_equality_is_identity(self):
        fan = build_surface_fan(Lattice.standard(2), [(1, 0), (0, 1), (-1, -1)])
        swap = IntMatrix(((0, 1), (1, 0)))
        a, b = action_from_generators(fan, [swap]), action_from_generators(fan, [swap])
        assert (a.fan, a.seed, a.generators, a.transversals) == (b.fan, b.seed, b.generators, b.transversals)
        assert a == a and a != b and hash(a) == object.__hash__(a)
        assert repr(a) == f"GroupAction(fan={fan!r}, seed={a.seed!r}, generators={a.generators!r}, transversals=None)"
        with pytest.raises(AttributeError):
            a.fan = fan

    def test_cached_properties(self):
        fan = build_surface_fan(Lattice.standard(2), [(1, 0), (0, 1), (-1, 0), (0, -1)])
        action = fan_automorphisms(fan)
        assert "_seed_read_off" in vars(action) and "order" not in vars(action)
        assert action.order == 8 == len(action.ray_perms) == len(action.elements)
        assert action.elements is action.elements and vars(action)["order"] == 8
        plain = GroupAction(fan, action.seed, action.generators)
        assert plain.transversals is None and plain.order == 8 and plain.ray_perms == action.ray_perms
        assert set(plain.elements) == set(action.elements)


def test_fan_is_a_value():
    lattice = Lattice.standard(2)
    fan = Fan(lattice, ((-1, -1), (1, 0), (0, 1)), ((0, 1), (0, 2), (1, 2)))
    assert fan == build_surface_fan(lattice, [(0, 1), (-1, -1), (1, 0)]) and {fan: 1}[Fan(*fan._values(fan))] == 1


def test_a_read_word_leaves_the_fan_value_unchanged():
    # The word is cached in the instance dict, which no field, comparison,
    # hash, repr or pickle reads.
    read, unread = (build_surface_fan(Lattice.standard(2), [(1, 0), (1, 1), (0, 1), (-1, -1)]) for _ in range(2))
    assert read.word == ((1, 1, 1, 1), (-1, 0, 1, 0)) and "word" in vars(read) and "word" not in vars(unread)
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    assert pickle.dumps(read) == pickle.dumps(unread) and pickle.loads(pickle.dumps(read)) == unread
    assert copy.copy(read) == unread
    with pytest.raises(AttributeError):
        read.word = unread.word
    with pytest.raises(AttributeError):
        del read.word
    assert read.word == unread.word
