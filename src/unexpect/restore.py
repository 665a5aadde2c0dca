"""`Engine.restore` and `Engine.restore_json`: an engine rebuilt from a
snapshot, with every check a hand-edited one needs.

Only `replay` and library callers of `restore` load this module, on
their first call; `track` writes snapshots and never compiles it.
"""

from __future__ import annotations

import json
from collections import Counter
from math import fsum

from .core import (ValidationError, VersionMismatchError, _decode_json_line, _require,
                   _symbols)
from .engine import SNAPSHOT_VERSION, ChangeDetector, EngineConfig
from .memory import StmStack


def _part(name: str, obj, keys) -> dict:
    """`obj`, if it is an object with the keys `keys` of the part `name`;
    else ValidationError naming the part and each missing or unknown key."""
    _require(name, obj, dict, "an object")
    for kind, odd in (("missing", keys - obj.keys()), ("unknown", obj.keys() - keys)):
        if odd:
            raise ValidationError(f"{name}: {kind} key(s) {sorted(odd)}")
    return obj


def restore(cls, snapshot: dict):
    """A `cls` engine rebuilt from its config and state. Each part has the
    keys that a fresh engine's `snapshot()` writes; this checks every value
    and the facts that span the parts, maps positions to symbols and fills
    the estimator. Every fault is a VersionMismatchError."""
    if not isinstance(snapshot, dict) or "format_version" not in snapshot:
        raise VersionMismatchError("not an engine snapshot")
    version = snapshot["format_version"]
    # Its own message, which names the version expected.
    if type(version) is not int or version != SNAPSHOT_VERSION:
        raise VersionMismatchError(
            f"snapshot version {version!r}, expected {SNAPSHOT_VERSION}")
    try:
        _part("top level", snapshot, cls().snapshot().keys())
        config = EngineConfig.from_dict(
            _part("config", snapshot["config"], EngineConfig._fields))
        engine = cls(config)
        fresh = engine.snapshot()
        estimator = _part("estimator", snapshot["estimator"], fresh["estimator"].keys())
        detector = _part("detector", snapshot["detector"], fresh["detector"].keys())
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
            raise ValidationError(f"seen_off_stack repeats stack symbol {repeated[0]!r}")
        # A symbol leaves only a full stack, which never shrinks.
        if off_stack and config.capacity is None:
            raise ValidationError("seen_off_stack must be empty for an unbounded stack")
        if off_stack and len(stack) < config.capacity:
            raise ValidationError(f"seen_off_stack must be empty while the stack holds "
                                  f"fewer than capacity ({config.capacity}) symbols")
        order = [*stack, *off_stack]
        if len(order) > events_seen:  # each seen symbol came from an event
            raise ValidationError(
                f"stack and seen_off_stack hold {len(order)} symbols, more "
                f"than events_seen ({events_seen})")
        engine._seen = set(order)
        if config.estimator == "iir":
            rates, steps = (_require(name, estimator[name], list,
                                     f"a list of {len(order)} entries",
                                     lambda v: len(v) == len(order))
                            for name in ("w", "w_step"))
            iir = engine.estimator
            for symbol, rate, when in zip(order, rates, steps):
                if rate is None and when is None:  # a rate a prune sweep forgot
                    if not config.prune:
                        raise ValidationError(f"w must hold a rate for each symbol while "
                                              f"prune is off, got null for {symbol!r}")
                    continue
                if rate is None or when is None:
                    raise ValidationError(
                        f"w_step must hold the symbols of w, and only those; "
                        f"{symbol!r} is in {'w' if when is None else 'w_step'} only")
                if (isinstance(rate, bool) or not isinstance(rate, (int, float))
                        or not 0.0 <= rate <= 1.0):  # also rejects NaN
                    raise ValidationError(
                        f"w must hold rates in [0, 1], got {rate!r} for {symbol!r}")
                if type(when) is not int or not 0 <= when <= events_seen:
                    raise ValidationError(f"w_step must hold steps in [0, "
                                          f"{events_seen}], got {when!r} for {symbol!r}")
                iir._entries[symbol] = [rate, when]
            iir._step = events_seen
            # Each update adds 1 - alpha to the rates and scales them by
            # alpha, so no run makes the decayed rates sum to more than 1.
            total = fsum(rate * config.alpha ** (events_seen - when)
                         for rate, when in iir._entries.values())
            if total > 1.0 + 1e-9:
                raise ValidationError(f"w must hold rates that sum to at most 1 "
                                      f"after decay, got {total!r}")
        else:
            buffer = _require("buffer", estimator["buffer"], list, "a list")
            # type() rejects a bool; the range keeps order[-1] unread.
            for i in buffer:
                if type(i) is not int or not 0 <= i < len(order):
                    raise ValidationError(f"buffer must hold positions in "
                                          f"[0, {len(order)}), got {i!r}")
            # Every event the engine scored went through the window.
            if len(buffer) != min(events_seen, config.window):
                raise ValidationError(
                    f"buffer holds {len(buffer)} symbols, not min(events_seen, "
                    f"window) = {min(events_seen, config.window)}")
            engine.estimator._buffer.extend(order[i] for i in buffer)
            engine.estimator._counts.update(Counter(engine.estimator._buffer))
        engine.detector = ChangeDetector(
            config.beta, config.theta, config.min_hits, **detector)
        # The detector learns only from the events scored after the warm-up.
        armed = max(events_seen - engine.warmup, 0)
        if detector["hits"] > armed or not armed and detector["ewma"]:
            raise ValidationError(
                f"detector must hold hits <= {armed}{'' if armed else ' and ewma 0.0'} "
                f"after {events_seen} events with warmup {engine.warmup}, got {detector}")
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
