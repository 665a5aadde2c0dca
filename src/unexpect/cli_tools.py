"""The commands that need no scorer: `explain`, `divergence` and
`simulate`. None of them loads the engine or the estimators."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import Counter
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Optional

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


# Lines at a time: trace lines read, matched and tallied by
# _pair_from_trace, and event lines written by `simulate`.
_BLOCK_LINES = 1024


def _pair_from_trace(lines: Iterable[str],
                     world: Optional[DiscreteDistribution]):
    """World = empirical symbol frequencies, mind = last seen c_ltm.

    Each item of `lines` is one line, with at most one newline, at its
    end, as iterating a file gives: an item holding two trace lines
    would count as one line of a block and could hide a bad line."""
    from .traceio import _JSONL_PATTERN

    counts: Counter[str] = Counter()
    # symbol -> its last c_ltm: a JSON number, or a canonical line's text
    last_c_ltm: dict = {}
    # Compiled here, so that no other command pays for it.
    find_all = re.compile(_JSONL_PATTERN).findall
    lines = iter(lines)
    lineno = 0
    while block := list(islice(lines, _BLOCK_LINES)):
        found = find_all("".join(block))
        # Iterating a file gives each line at most one newline, at its
        # end, and a match spans a whole line with its newline, so there
        # are as many matches as lines only if every line is one as
        # trace_to_jsonl writes it. Such a block is tallied in C.
        if len(found) == len(block):
            counts.update(map(itemgetter(0), found))
            last_c_ltm.update(filter(itemgetter(1), found))
            lineno += len(block)
            continue
        # Any other block goes a line at a time: a blank line is skipped
        # and any other takes the JSON path.
        for lineno, line in enumerate(block, lineno + 1):
            if not line.strip():
                continue
            try:
                _require_utf8(line)
                obj = _decode_json_line(line)
                symbol = obj["symbol"]
                c_ltm = obj["c_ltm"]
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValidationError) as exc:
                raise _fail_data(
                    f"line {lineno}: not a trace record: {exc}") from None
            if not isinstance(symbol, str):
                raise _fail_data(
                    f'line {lineno}: "symbol" must be a string, got {symbol!r}')
            if c_ltm is not None and (
                isinstance(c_ltm, bool) or not isinstance(c_ltm, (int, float))
                or not 0.0 <= c_ltm <= sys.float_info.max  # also rejects NaN
            ):
                raise _fail_data(
                    f'line {lineno}: "c_ltm" must be null or a finite '
                    f"number >= 0, got {c_ltm!r}")
            counts[symbol] += 1
            if c_ltm is not None:
                last_c_ltm[symbol] = c_ltm
    total = sum(counts.values())
    if not total:
        raise _fail_data("empty trace: nothing to report on")
    if world is None:
        support = tuple(sorted(counts))
        world = DiscreteDistribution(
            support, tuple(counts[s] / total for s in support)
        )
    else:
        unknown = sorted(counts.keys() - world.support)
        if unknown:
            raise _fail_data(
                f"trace symbol(s) not in the world's support: {unknown}")
    missing = [s for s in world.support if s not in last_c_ltm]
    if missing:
        raise _fail_data(
            f"trace carries no description cost for symbol(s): {missing}"
        )
    mind = CodeLengthTable(
        world.support, tuple(float(last_c_ltm[s]) for s in world.support)
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
        # encode_basestring_ascii is what json.dumps does with a str.
        stream, start = simgen._stream(spec), 0
        while block := list(islice(stream, _BLOCK_LINES)):
            out.write("".join([f'{{"t": {t}, "s": {encode_basestring_ascii(symbol)}}}\n'
                               for t, symbol in enumerate(block, start)]))
            start += len(block)
    return 0
