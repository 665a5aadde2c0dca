"""`Engine.restore` and `Engine.restore_json`: an engine rebuilt from a
snapshot, with every check a hand-edited one needs.

Only `replay` and library callers of `restore` load this module, on
their first call; `track` writes snapshots and never compiles it.
"""

from __future__ import annotations

import json

from .core import (ValidationError, VersionMismatchError, _decode_json_line, _require,
                   _symbols)
from .engine import SNAPSHOT_VERSION, ChangeDetector, EngineConfig
from .estimators import FirEstimator, IirEstimator
from .memory import StmStack

# The keys of each part of a snapshot, as `Engine.snapshot` writes them;
# the estimator's keys depend on its kind.
_TOP_KEYS = ("format_version", "config", "last_t", "events_seen",
             "seen_off_stack", "stack", "estimator", "detector")
_ESTIMATOR_KEYS = {"iir": ("w", "w_step"), "fir": ("buffer",)}
_DETECTOR_KEYS = ("ewma", "hits")


def _known_keys(part: str, obj: dict, keys) -> None:
    """ValidationError naming `part` if `obj` holds a key not in `keys`, as
    `track --config` rejects one: a key that nothing reads would be lost
    without a word."""
    unknown = obj.keys() - keys
    if unknown:
        raise ValidationError(f"{part}: unknown key(s) {sorted(unknown)}")


def restore(cls, snapshot: dict):
    """A `cls` engine rebuilt from its config and state. The stack,
    estimator and detector check their own state; this checks the facts
    that span them, maps positions to symbols, and rejects a key that
    format 4 does not write. Every fault is a VersionMismatchError."""
    if not isinstance(snapshot, dict) or "format_version" not in snapshot:
        raise VersionMismatchError("not an engine snapshot")
    version = snapshot["format_version"]
    # Its own message, which names the version expected.
    if type(version) is not int or version != SNAPSHOT_VERSION:
        raise VersionMismatchError(
            f"snapshot version {version!r}, expected {SNAPSHOT_VERSION}")
    try:
        config = EngineConfig.from_dict(snapshot["config"])
        _known_keys("config", snapshot["config"], config._fields)
        engine = cls(config)
        engine.events_seen = events_seen = _require(
            "events_seen", snapshot["events_seen"], int,
            "a nonnegative integer", lambda n: n >= 0)
        # last_t is null exactly before the first event; each event's t
        # is >= 0 and above the one before, so events_seen <= last_t + 1.
        engine.last_t = last_t = _require(
            "last_t", snapshot["last_t"], int if events_seen else type(None),
            "a nonnegative integer" if events_seen else "null while events_seen is 0",
            lambda t: t is None or t >= 0)
        if events_seen and events_seen > last_t + 1:
            raise ValidationError(f"events_seen must be at most last_t + 1 "
                                  f"({last_t + 1}), got {events_seen}")
        stack = _symbols("stack", snapshot["stack"], distinct=True)
        engine.stack = StmStack(capacity=config.capacity, items=stack)
        off_stack = _symbols("seen_off_stack", snapshot["seen_off_stack"],
                             distinct=True)
        repeated = sorted(set(stack).intersection(off_stack))
        if repeated:
            raise ValidationError(
                f"seen_off_stack repeats stack symbol {repeated[0]!r}")
        if off_stack and config.capacity is None:
            raise ValidationError(
                "seen_off_stack must be empty for an unbounded stack")
        order = [*stack, *off_stack]
        if len(order) > events_seen:  # each seen symbol came from an event
            raise ValidationError(
                f"stack and seen_off_stack hold {len(order)} symbols, more "
                f"than events_seen ({events_seen})")
        engine._seen = set(order)
        estimator, detector = snapshot["estimator"], snapshot["detector"]
        if config.estimator == "iir":
            entries = [_require(name, estimator[name], list,
                                f"a list of {len(order)} entries",
                                lambda v: len(v) == len(order))
                       for name in _ESTIMATOR_KEYS["iir"]]
            # A null in one list only leaves a symbol in one dict only,
            # which the estimator rejects; step is events_seen.
            w, w_step = ({s: v for s, v in zip(order, values) if v is not None}
                         for values in entries)
            engine.estimator = IirEstimator(config.alpha, events_seen, w, w_step)
        else:
            buffer = _require("buffer", estimator["buffer"], list, "a list")
            # type() rejects a bool; the range keeps order[-1] unread.
            for i in buffer:
                if type(i) is not int or not 0 <= i < len(order):
                    raise ValidationError(f"buffer must hold positions in "
                                          f"[0, {len(order)}), got {i!r}")
            engine.estimator = FirEstimator(config.window, [order[i] for i in buffer])
            # Every event the engine scored went through the window.
            if len(buffer) != min(events_seen, config.window):
                raise ValidationError(
                    f"buffer holds {len(buffer)} symbols, not min(events_seen, "
                    f"window) = {min(events_seen, config.window)}")
        _known_keys("estimator", estimator, _ESTIMATOR_KEYS[config.estimator])
        engine.detector = ChangeDetector(
            config.beta, config.theta, config.min_hits, detector["ewma"],
            detector["hits"])
        _known_keys("detector", detector, _DETECTOR_KEYS)
        _known_keys("top level", snapshot, _TOP_KEYS)
    except KeyError as exc:
        raise VersionMismatchError(f"{exc.args[0]} is missing") from None
    except (TypeError, ValueError) as exc:  # e.g. an estimator of "x"
        raise VersionMismatchError(f"malformed snapshot: {exc}") from None
    except ValidationError as exc:
        raise VersionMismatchError(str(exc)) from None
    return engine


def restore_json(cls, text: str):
    """`cls.restore` of the JSON text `text`."""
    try:
        obj = _decode_json_line(text)
    except (json.JSONDecodeError, ValidationError) as exc:
        raise VersionMismatchError(f"unreadable snapshot: {exc}") from None
    return cls.restore(obj)
