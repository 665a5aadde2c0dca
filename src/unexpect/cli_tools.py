"""The commands that need no scorer: `explain`, `divergence` and
`simulate`. None of them loads the engine or the estimators."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import IO, Optional

from .cli import _fail_data, _fail_flag, _open_input, _open_output, _read_json_file
from .core import (CodeLengthTable, DiscreteDistribution, UnexpectError,
                   ValidationError, _decode_json_line, _numbers, _require,
                   _require_utf8)


def _cmd_explain(args: argparse.Namespace) -> int:
    from . import causal

    if (args.graph is None) == (args.bayes is None):
        raise _fail_flag("exactly one of --graph or --bayes is required")
    if args.graph is not None:
        if args.cd is None:
            raise _fail_flag("--cd is required with --graph")
        if not 0.0 <= args.cd < math.inf:  # also rejects NaN
            raise _fail_flag(f"--cd must be finite and >= 0, got {args.cd}")
        graph = _read_json_file(args.graph, "graph file", causal.CausalGraph.from_dict)
        c_d = args.cd
    else:
        if args.cd is not None:
            raise _fail_flag("--cd cannot be combined with --bayes")

        def model(obj):
            priors, likelihoods = {}, {}
            for k, v in _require("causes", obj["causes"], dict, "an object").items():
                priors[k] = _require(f"prior of {k!r}", v["prior"], (int, float),
                                     "a number")
                likelihoods[k] = _require(f"likelihood of {k!r}", v["likelihood"],
                                          (int, float), "a number")
            return causal.from_probabilities(
                priors, likelihoods,
                _require("evidence", obj["evidence"], (int, float), "a number"),
                _require("observation", obj.get("observation", args.target), str,
                         "a string"))

        graph, c_d = _read_json_file(args.bayes, "model file", model)

    explanation = graph.explain(args.target, c_d)
    cost = explanation.generation_cost
    # The chain itself describes the target in `cost` bits; a Bayes model
    # is checked by from_probabilities.
    if args.graph is not None and c_d > cost:
        raise _fail_data(f"--cd {c_d} is above {cost} bits, the cost of the "
                         f"cheapest chain to {args.target!r}: u_raw = "
                         f"{explanation.u_raw} < 0")
    result = {
        "target": explanation.target,
        "best_cause": explanation.best_cause,
        "chain": list(explanation.chain),
        "generation_cost_bits": explanation.generation_cost,
        "c_d_bits": explanation.c_d,
        "u_raw_bits": explanation.u_raw,
        "u_clamped_bits": explanation.u_clamped,
        # u_clamped: rounding in a Bayes model may leave u_raw just below 0.
        "posterior": 2.0 ** -explanation.u_clamped,
    }
    with _open_output(args.output, "--output") as out:
        out.write(json.dumps(result) + "\n")
    return 0


def _pair_from_trace(lines: IO[str], world: Optional[DiscreteDistribution]):
    """World = empirical symbol frequencies, mind = last seen c_ltm."""
    from .traceio import _JSONL_PATTERN

    counts: Counter[str] = Counter()
    last_c_ltm: dict[str, float] = {}
    total = 0
    # A line as trace_to_jsonl writes it is one match; any other takes
    # the JSON path. Compiled here, so that no other command pays for it.
    canonical = re.compile(_JSONL_PATTERN).fullmatch
    for lineno, line in enumerate(lines, 1):
        match = canonical(line)
        if match is not None:
            symbol, c_ltm = match.groups()
            if c_ltm is not None:
                c_ltm = float(c_ltm)
        elif not line.strip():
            continue
        else:
            try:
                _require_utf8(line)
                obj = _decode_json_line(line)
                symbol = obj["symbol"]
                c_ltm = obj["c_ltm"]
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValidationError) as exc:
                raise _fail_data(
                    f"line {lineno}: not a trace record: {exc}") from None
        # Inline, not _require: these two run on every trace line.
        if not isinstance(symbol, str):
            raise _fail_data(f'line {lineno}: "symbol" must be a string, got {symbol!r}')
        if c_ltm is not None and (
            isinstance(c_ltm, bool) or not isinstance(c_ltm, (int, float))
            or not 0.0 <= c_ltm <= sys.float_info.max  # also rejects NaN
        ):
            raise _fail_data(
                f'line {lineno}: "c_ltm" must be null or a finite number >= 0, '
                f"got {c_ltm!r}"
            )
        counts[symbol] += 1
        total += 1
        if c_ltm is not None:
            last_c_ltm[symbol] = float(c_ltm)
    if not total:
        raise _fail_data("empty trace: nothing to report on")
    if world is None:
        support = tuple(sorted(counts))
        world = DiscreteDistribution(
            support, tuple(counts[s] / total for s in support)
        )
    missing = [s for s in world.support if s not in last_c_ltm]
    if missing:
        raise _fail_data(
            f"trace carries no description cost for symbol(s): {missing}"
        )
    mind = CodeLengthTable(
        world.support, tuple(last_c_ltm[s] for s in world.support)
    )
    from .divergence import MachinePair

    return MachinePair(world, mind)


def _cmd_divergence(args: argparse.Namespace) -> int:
    from .divergence import MachinePair, divergences

    if not 0.0 < args.tau < math.inf:  # also rejects NaN
        raise _fail_flag(f"--tau must be finite and > 0, got {args.tau}")
    if args.from_trace:
        if args.mind is not None:
            raise _fail_flag("--mind cannot be combined with --from-trace")
        world = None
        if args.world is not None:
            world = _load_table(args.world, "world file", DiscreteDistribution,
                                "mass")
        with _open_input(args.input) as lines:
            pair = _pair_from_trace(lines, world)
    else:
        if args.world is None or args.mind is None:
            raise _fail_flag("--world and --mind are required (or use --from-trace)")
        world = _load_table(args.world, "world file", DiscreteDistribution, "mass")
        mind = _load_table(args.mind, "mind file", CodeLengthTable, "bits")
        pair = MachinePair(world, mind)

    report = divergences(pair, tau=args.tau, normalize_mind=args.normalize_mind)

    with _open_output(args.output, "--output") as out:
        payload = report.to_dict()
        if args.emit == "csv":
            from .traceio import _csv_field

            def render(v):
                if v is None:
                    return "inf"
                if isinstance(v, float):
                    return repr(v)
                return str(v)

            out.write("field,value\n")
            for key in report.SCALARS:
                out.write(f"{key},{render(payload[key])}\n")
            for sym, u in zip(payload["symbols"], payload["u"]):
                try:
                    out.write(f"{_csv_field(f'u.{sym}')},{render(u)}\n")
                except UnicodeEncodeError as exc:  # e.g. a lone surrogate
                    raise _fail_data(
                        f"cannot write symbol {sym!r}: {exc.reason}") from None
            for key in ("unsound", "incomplete"):
                out.write(f"{key},{_csv_field(';'.join(payload[key]))}\n")
        else:
            out.write(json.dumps(payload) + "\n")
    return 0


def _load_table(path: str, what: str, cls, values: str):
    """A {"symbols": [str, ...], values: [number, ...]} file as `cls`."""
    def build(obj):
        symbols = obj["symbols"]
        # Not _symbols: these messages name the file's "symbols" key.
        if not isinstance(symbols, list):  # a string would read as its letters
            raise ValidationError('"symbols" must be a list of strings')
        for symbol in symbols:
            if not isinstance(symbol, str):
                raise ValidationError(f'"symbols" must be strings, got {symbol!r}')
        return cls(symbols, _numbers(f'"{values}"', obj[values]))
    return _read_json_file(path, what, build)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simgen

    spec = _read_json_file(args.spec, "spec", simgen.SourceSpec.from_dict)
    if args.dist_out is not None:
        try:
            dist = simgen.stationary_distribution(spec)
        except UnexpectError as exc:
            raise _fail_flag(f"--dist-out: {exc}") from None
        with _open_output(args.dist_out, "--dist-out") as fh:
            fh.write(dist.to_json() + "\n")
    with _open_output(args.out, "--out") as out:
        write = out.write
        # encode_basestring_ascii is what json.dumps does with a str.
        for t, symbol in enumerate(simgen._stream(spec)):
            write('{"t": %d, "s": %s}\n' % (t, encode_basestring_ascii(symbol)))
    return 0
