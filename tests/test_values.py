"""The value types against the frozen dataclasses they replaced.

Each Ref* class below is the class as it was when it was a
``@dataclass``: its fields, defaults and ``__post_init__`` are kept
verbatim (only the class names changed, and RefChangeDetector also
checks ``ewma`` and ``hits``), so that the hand-written classes can be
checked against what the decorator generated: the same validation
errors, equality (only with the same class), hash, repr, immutability,
and pickling and copying.
"""

import copy
import math
import pickle
from dataclasses import dataclass, fields
from typing import Optional, Union

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unexpect import estimators
from unexpect.causal import Explanation
from unexpect.core import (
    ImproperDistributionError,
    InvalidSpecError,
    SupportMismatchError,
    ValidationError,
)
from unexpect.divergence import DivergenceReport, MachinePair
from unexpect.engine import ChangeDetector, EngineConfig
from unexpect.estimators import EPSILON_AUTO, EpsilonSpec, resolve_epsilon
from unexpect.memory import Observation
from unexpect.simgen import SourceSpec
from unexpect.tables import (
    MASS_TOLERANCE,
    CodeLengthTable,
    DiscreteDistribution,
)

SymbolId = str
BitLength = float


# -- reference: the dataclasses ------------------------------------------


@dataclass(frozen=True)
class RefDiscreteDistribution:
    support: tuple[SymbolId, ...]
    mass: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "mass", tuple(float(m) for m in self.mass))
        if len(self.support) != len(self.mass):
            raise ValidationError("support and mass must be parallel arrays")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("support contains duplicate symbols")
        for sym, m in zip(self.support, self.mass):
            if math.isnan(m) or m < 0.0:
                raise ValidationError(f"mass of {sym!r} must be >= 0, got {m}")
        total = math.fsum(self.mass)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ImproperDistributionError(
                f"masses sum to {total!r}, expected 1 within {MASS_TOLERANCE}"
            )


@dataclass(frozen=True)
class RefCodeLengthTable:
    support: tuple[SymbolId, ...]
    length: tuple[BitLength, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "length", tuple(float(v) for v in self.length))
        if len(self.support) != len(self.length):
            raise ValidationError("support and length must be parallel arrays")
        if len(set(self.support)) != len(self.support):
            raise ValidationError("support contains duplicate symbols")
        for sym, bits in zip(self.support, self.length):
            if math.isnan(bits) or math.isinf(bits) or bits < 0.0:
                raise ValidationError(
                    f"length of {sym!r} must be finite and >= 0, got {bits}"
                )


@dataclass(frozen=True)
class RefObservation:
    t: int
    symbol: SymbolId

    def __post_init__(self):
        # Beyond the dataclass: an int t and a str symbol, exactly, as
        # only those survive a snapshot round trip.
        if type(self.t) is not int or self.t < 0:
            raise ValidationError(
                f"time index must be a nonnegative integer, got {self.t!r}")
        if type(self.symbol) is not str:
            raise ValidationError(f"symbol must be a string, got {self.symbol!r}")


@dataclass
class RefChangeDetector:
    beta: float = 0.95
    theta: float = 1.0
    min_hits: int = 20
    ewma: float = 0.0
    hits: int = 0

    def __post_init__(self):
        # Types before ranges; a bool is not a number.
        for name, kind, what in (("beta", (int, float), "a number"),
                                 ("theta", (int, float), "a number"),
                                 ("min_hits", int, "an integer")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValidationError(f"{name} must be {what}, got {value!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(f"beta must be in (0, 1), got {self.beta}")
        if not 0.0 < self.theta < math.inf:  # also rejects NaN
            raise ValidationError(f"theta must be finite and > 0, got {self.theta}")
        if self.min_hits < 1:
            raise ValidationError(f"min hits must be >= 1, got {self.min_hits}")
        # Beyond the dataclass: ChangeDetector checks its state too, as a
        # NaN ewma never flags and an infinite one always does.
        ewma = self.ewma
        if (isinstance(ewma, bool) or not isinstance(ewma, (int, float))
                or not 0.0 <= ewma < math.inf):  # also rejects NaN
            raise ValidationError(f"ewma must be a finite number >= 0, got {ewma!r}")
        if type(self.hits) is not int or self.hits < 0:
            raise ValidationError(
                f"hits must be a nonnegative integer, got {self.hits!r}")


@dataclass(frozen=True)
class RefEngineConfig:
    estimator: str = "iir"          # "iir" | "fir"
    alpha: float = 0.999            # IIR decay
    window: int = 10000             # FIR window
    epsilon: EpsilonSpec = EPSILON_AUTO
    beta: float = 0.95
    theta: float = 1.0
    min_hits: int = 20
    warmup: Union[int, str] = "auto"  # events before the detector arms
    capacity: Optional[int] = None  # STM stack bound; None = unbounded
    prune: bool = False

    def __post_init__(self):
        if self.estimator not in ("iir", "fir"):
            raise ValidationError(
                f"estimator must be 'iir' or 'fir', got {self.estimator!r}"
            )

        def require(name, kind, what):
            # Before any range check, so none compares a str; a bool never
            # counts as a number.
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValidationError(f"{name} must be {what}, got {value!r}")

        for name in ("alpha", "beta", "theta"):
            require(name, (int, float), "a number")
        for name in ("window", "min_hits"):
            require(name, int, "an integer")
        # Both, whatever the estimator: a later rule.
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.window < 1:
            raise ValidationError(f"window must be >= 1, got {self.window}")
        if self.epsilon not in (EPSILON_AUTO, estimators.EPSILON_OFF):
            require("epsilon", (int, float), "a number")
            resolve_epsilon(self.epsilon, 0, 0)  # validates the range
        if self.warmup != "auto" and (
            isinstance(self.warmup, bool) or not isinstance(self.warmup, int)
            or self.warmup < 0
        ):
            raise ValidationError(f"warmup must be 'auto' or >= 0, got {self.warmup}")
        if self.capacity is not None:
            require("capacity", int, "an integer")
            if self.capacity < 1:
                raise ValidationError(f"capacity must be >= 1, got {self.capacity}")
        if not isinstance(self.prune, bool):
            raise ValidationError(f"prune must be true or false, got {self.prune!r}")
        RefChangeDetector(self.beta, self.theta, self.min_hits)  # validates


@dataclass(frozen=True)
class RefSourceSpec:
    kind: str
    length: int
    seed: int
    distribution: Optional[DiscreteDistribution] = None        # stationary, changepoint
    distribution_after: Optional[DiscreteDistribution] = None  # changepoint
    t_star: Optional[int] = None                               # changepoint
    base_labels: Optional[int] = None                          # bifurcation
    base_mass: Optional[tuple[float, ...]] = None              # bifurcation
    offset_values: Optional[tuple[int, ...]] = None            # bifurcation
    offset_mass: Optional[tuple[float, ...]] = None            # bifurcation
    alphabet: Optional[int] = None                             # zipf
    exponent: float = 1.0                                      # zipf

    def __post_init__(self):
        if self.length < 0:
            raise InvalidSpecError(f"length must be >= 0, got {self.length}")
        if self.kind == "stationary":
            if self.distribution is None:
                raise InvalidSpecError("stationary spec needs a distribution")
        elif self.kind == "changepoint":
            if self.distribution is None or self.distribution_after is None:
                raise InvalidSpecError("changepoint spec needs two distributions")
            if self.t_star is None or not 0 <= self.t_star < max(self.length, 1):
                raise InvalidSpecError("changepoint spec needs 0 <= t_star < length")
        elif self.kind == "bifurcation":
            if not self.base_labels or self.base_labels < 1:
                raise InvalidSpecError("bifurcation spec needs base_labels >= 1")
            if self.offset_values is None or self.offset_mass is None:
                raise InvalidSpecError("bifurcation spec needs an offset distribution")
            # validates masses as a distribution
            self._offset_distribution()
            self._base_distribution()
        elif self.kind == "zipf":
            if self.alphabet is None or self.alphabet < 1:
                raise InvalidSpecError("zipf spec needs alphabet >= 1")
            if self.exponent <= 0:
                raise InvalidSpecError(f"zipf exponent must be > 0, got {self.exponent}")
        else:
            raise InvalidSpecError(f"unknown kind {self.kind!r}")

    def _base_distribution(self) -> DiscreteDistribution:
        labels = tuple(str(i) for i in range(self.base_labels))
        if self.base_mass is None:
            uniform = 1.0 / self.base_labels
            return DiscreteDistribution(labels, (uniform,) * self.base_labels)
        return DiscreteDistribution(labels, tuple(self.base_mass))

    def _offset_distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution(
            tuple(str(v) for v in self.offset_values), tuple(self.offset_mass)
        )


@dataclass(frozen=True)
class RefMachinePair:
    world: DiscreteDistribution
    mind: CodeLengthTable

    def __post_init__(self):
        if self.world.support != self.mind.support:
            raise SupportMismatchError(
                "world and mind must share the same support, in the same order"
            )


@dataclass(frozen=True)
class RefDivergenceReport:
    support: tuple[SymbolId, ...]
    h: BitLength
    v: BitLength
    v_hat: BitLength
    v_star: BitLength
    d: BitLength
    d_wrel: BitLength
    d_abs: BitLength
    d_drel: BitLength
    per_symbol_u: tuple[float, ...]
    unsound_symbols: tuple[SymbolId, ...]
    incomplete_symbols: tuple[SymbolId, ...]
    zero_mass_symbols: tuple[SymbolId, ...]


@dataclass(frozen=True)
class RefExplanation:
    target: SymbolId
    best_cause: Optional[SymbolId]   # None when the prior alone is cheapest
    chain: tuple[SymbolId, ...]      # root .. target along the minimal path
    generation_cost: BitLength
    c_d: BitLength
    u_raw: float
    u_clamped: float


# -- arguments: valid, invalid, and of the wrong type --------------------

syms = st.sampled_from(["a", "b", "c", "a,b", "é", "\ud800"])
floats = st.floats(allow_nan=True, allow_infinity=True)
numbers = st.one_of(st.integers(-3, 3), floats, st.sampled_from([True, "1", None]))
texts = st.text(max_size=4)
mostly = st.sampled_from([True, True, True, False])


@st.composite
def masses(draw, n):
    """n masses that sum to 1 (as ints, one-hot, or floats), or n
    arbitrary floats."""
    if n and draw(st.booleans()):
        hot = draw(st.integers(0, n - 1))
        return [int(i == hot) for i in range(n)]
    if draw(mostly):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        total = math.fsum(weights)
        return [w / total for w in weights] if total > 0 else weights
    return draw(st.lists(floats, min_size=n, max_size=n))


@st.composite
def distribution_args(draw):
    support = draw(st.lists(syms, max_size=4, unique=draw(mostly)))
    n = len(support) + draw(st.sampled_from([0, 0, 0, 1]))
    return [tuple(support), tuple(draw(masses(n)))], {}


@st.composite
def code_table_args(draw):
    support = draw(st.lists(syms, max_size=4))
    n = len(support) + draw(st.sampled_from([0, 0, 0, 1]))
    lengths = draw(st.lists(floats | st.floats(0.0, 8.0) | st.integers(0, 8),
                            min_size=n, max_size=n))
    return [tuple(support), lengths], {}


def valid(cls, args_strategy):
    """Instances of cls built from drawn arguments that it accepts."""

    def build(drawn):
        args, kwargs = drawn
        try:
            return cls(*args, **kwargs)
        except Exception:
            return None

    return args_strategy.map(build).filter(lambda value: value is not None)


distributions = valid(DiscreteDistribution, distribution_args())
code_tables = valid(CodeLengthTable, code_table_args())


@st.composite
def observation_args(draw):
    t = draw(st.integers(-2, 3) | st.integers(0, 2**70)
             | st.sampled_from(["1", 1.5, 2.0, None, True, False]))
    return [t, draw(syms | texts | st.sampled_from([7, None, b"a", True]))], {}


@st.composite
def keyword_args(draw, names, values):
    """Each named argument given (one time in four) or left to its
    default, by keyword."""
    kwargs = {}
    for name in names:
        if not draw(mostly):
            kwargs[name] = draw(values[name])
    return [], kwargs


detector_args = keyword_args(
    ("beta", "theta", "min_hits", "ewma", "hits"),
    {"beta": numbers | st.floats(0.0, 1.0), "theta": numbers,
     "min_hits": st.integers(-1, 30), "ewma": numbers | st.floats(0.0, 9.0),
     "hits": st.integers(-2, 9) | st.sampled_from([2.0, True, "1", None])},
)

config_args = keyword_args(
    ("estimator", "alpha", "window", "epsilon", "beta", "theta", "min_hits",
     "warmup", "capacity", "prune"),
    {
        "estimator": st.sampled_from(["iir", "fir", "x", None]),
        "alpha": numbers | st.floats(0.0, 1.0),
        "window": st.integers(-1, 20) | st.sampled_from([2.5, True, "3"]),
        "epsilon": st.sampled_from(["auto", "off", 0, 0.01, -0.5, 1.0, True, "x"])
        | floats,
        "beta": numbers | st.floats(0.0, 1.0),
        "theta": numbers,
        "min_hits": st.integers(-1, 30) | st.sampled_from([2.5, True]),
        "warmup": st.sampled_from(["auto", 0, 7, -1, 2.5, True, "3"]),
        "capacity": st.sampled_from([None, 1, 256, 0, 2.5, True]),
        "prune": st.sampled_from([False, True, "yes", 0]),
    },
)


@st.composite
def spec_args(draw):
    kind = draw(st.sampled_from(["stationary", "changepoint", "bifurcation",
                                 "zipf", "other"]))
    length = draw(st.integers(-1, 50))
    args = [kind, length, draw(st.integers(0, 2**64))]
    # Fields that the kind needs, most of the time, and any of the
    # others drawn at random on top.
    needed = {
        "stationary": {"distribution": distributions},
        "changepoint": {"distribution": distributions,
                        "distribution_after": distributions,
                        "t_star": st.integers(0, max(length - 1, 0))},
        "bifurcation": {"base_labels": st.integers(1, 4),
                        "offset_values": st.just((0, 2)),
                        "offset_mass": st.just((0.5, 0.5))},
        "zipf": {"alphabet": st.integers(1, 20), "exponent": st.floats(0.5, 2.0)},
        "other": {},
    }[kind]
    kwargs = {name: draw(value) for name, value in needed.items()} if draw(
        mostly) else {}
    optional = {
        "distribution": st.none() | distributions,
        "distribution_after": st.none() | distributions,
        "t_star": st.none() | st.integers(-1, 60),
        "base_labels": st.none() | st.integers(-1, 4),
        "base_mass": st.none() | st.lists(st.floats(0.0, 1.0), max_size=4).map(tuple),
        "offset_values": st.none() | st.lists(st.integers(-3, 3), max_size=3).map(tuple),
        "offset_mass": st.none() | st.lists(st.floats(0.0, 1.0), max_size=3).map(tuple)
        | st.sampled_from([(1.0,), (0.5, 0.5)]),
        "alphabet": st.none() | st.integers(-1, 20),
        "exponent": st.floats(-1.0, 3.0),
    }
    noise = draw(keyword_args(tuple(optional), optional))[1]
    return args, {**kwargs, **noise} if draw(st.booleans()) else kwargs


@st.composite
def pair_args(draw):
    world = draw(distributions)
    if draw(st.booleans()):
        mind = CodeLengthTable(world.support, [1.0] * len(world.support))
    else:
        mind = draw(code_tables)
    return [world, mind], {}


symbol_tuples = st.lists(syms, max_size=3).map(tuple)
report_args = st.tuples(
    symbol_tuples, *[floats] * 8, st.lists(floats, max_size=3).map(tuple),
    symbol_tuples, symbol_tuples, symbol_tuples,
).map(lambda values: (list(values), {}))
explanation_args = st.tuples(
    syms, st.none() | syms, symbol_tuples, floats, floats, floats, floats,
).map(lambda values: (list(values), {}))

CASES = [
    (DiscreteDistribution, RefDiscreteDistribution, distribution_args()),
    (CodeLengthTable, RefCodeLengthTable, code_table_args()),
    (Observation, RefObservation, observation_args()),
    (ChangeDetector, RefChangeDetector, detector_args),
    (EngineConfig, RefEngineConfig, config_args),
    (SourceSpec, RefSourceSpec, spec_args()),
    (MachinePair, RefMachinePair, pair_args()),
    (DivergenceReport, RefDivergenceReport, report_args),
    (Explanation, RefExplanation, explanation_args),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


# -- the contract ----------------------------------------------------------


def build(cls, args, kwargs):
    """("ok", instance) or ("error", exception type, message)."""
    try:
        return ("ok", cls(*args, **kwargs))
    except Exception as exc:
        return ("error", type(exc), str(exc))


def outcome(fn):
    """("ok", result) or ("error", exception type, message)."""
    try:
        return ("ok", fn())
    except Exception as exc:
        return ("error", type(exc), str(exc))


def same_value(new, ref):
    """new shows what ref shows: its class name aside, the same repr."""
    assert "Ref" + repr(new) == repr(ref)


def check_mutation(new, ref, name, mutable):
    """Assignment (and, when frozen, deletion) acts as on the reference."""
    value = getattr(ref, name, 0)
    set_new = outcome(lambda: setattr(new, name, value))
    set_ref = outcome(lambda: setattr(ref, name, value))
    if mutable:
        assert set_new == set_ref == ("ok", None)
        return
    # FrozenInstanceError is an AttributeError subclass with the same text.
    assert set_new == ("error", AttributeError, set_ref[2])
    assert issubclass(set_ref[1], AttributeError)
    del_new = outcome(lambda: delattr(new, name))
    del_ref = outcome(lambda: delattr(ref, name))
    assert del_new == ("error", AttributeError, del_ref[2])
    assert issubclass(del_ref[1], AttributeError)


@pytest.mark.parametrize("cls, ref_cls, arguments", CASES, ids=IDS)
@given(data=st.data())
def test_value_contract_matches_the_dataclass(cls, ref_cls, arguments, data):
    args, kwargs = data.draw(arguments, label="arguments")
    new, ref = build(cls, args, kwargs), build(ref_cls, args, kwargs)
    if ref[0] == "error":
        assert new == ref  # the same validation error and message
        return
    assert new[0] == "ok", new
    new, ref = new[1], ref[1]
    same_value(new, ref)
    assert cls.__slots__ == cls._fields == tuple(f.name for f in fields(ref_cls))
    assert not hasattr(new, "__dict__")

    # Equality: by fields, with the same class only.
    other_args, other_kwargs = data.draw(arguments, label="other arguments")
    other_new = build(cls, other_args, other_kwargs)
    other_ref = build(ref_cls, other_args, other_kwargs)
    if other_ref[0] == "ok":
        assert (new == other_new[1]) == (ref == other_ref[1])
        assert (new != other_new[1]) == (ref != other_ref[1])
    twin = cls(*args, **kwargs)
    assert (new == twin) == (ref == ref_cls(*args, **kwargs))
    assert new.__eq__(ref) is NotImplemented and new != ref
    assert new != tuple(getattr(new, name) for name in cls._fields)
    assert new.__eq__(None) is NotImplemented
    # A subclass instance with the same fields is another class.
    sub = type("Sub", (cls,), {"__slots__": ()})(*args, **kwargs)
    ref_sub = type("Sub", (ref_cls,), {})(*args, **kwargs)
    assert (new == sub) == (ref == ref_sub) == False  # noqa: E712
    assert new.__eq__(sub) is NotImplemented

    # Hash: the same value as the dataclass, or the same TypeError.
    new_hash, ref_hash = outcome(lambda: hash(new)), outcome(lambda: hash(ref))
    assert new_hash[:2] == ref_hash[:2]
    if ref_hash[0] == "ok":
        assert new_hash == ref_hash

    # Pickling and copying rebuild an equal value of the same class.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        new_copy = pickle.loads(pickle.dumps(new, protocol))
        ref_copy = pickle.loads(pickle.dumps(ref, protocol))
        assert type(new_copy) is cls
        same_value(new_copy, ref_copy)
        assert (new_copy == new) == (ref_copy == ref)
    for copier in (copy.copy, copy.deepcopy):
        new_copy, ref_copy = copier(new), copier(ref)
        assert type(new_copy) is cls and new_copy is not new
        same_value(new_copy, ref_copy)
        assert (new_copy == new) == (ref_copy == ref)

    # Immutability, on every field and on a name that is not one.
    mutable = cls is ChangeDetector
    for name in (*cls._fields, "not_a_field"):
        if not (mutable and name == "not_a_field"):  # slots refuse new names
            check_mutation(new, ref, name, mutable)
    same_value(new, ref)


def test_change_detector_stays_mutable_and_unhashable():
    detector = ChangeDetector(beta=0.5, theta=1.0, min_hits=2)
    assert detector.update(10.0) is False and detector.ewma == 5.0
    detector.hits = 7
    assert detector == ChangeDetector(0.5, 1.0, 2, 5.0, 7)
    with pytest.raises(TypeError, match="unhashable"):
        hash(detector)
