"""`track`'s config merge against the reference it replaced.

`_build_config` merges a `--config` file under the flags and leaves the
checks to `EngineConfig`, naming the flag from the `ValidationError`'s
field. The reference below is the merge as it was when the CLI kept its
own copy of every check, verbatim but for one later rule: alpha and
window are checked whatever the estimator. With at most one bad value,
the two must give the same config (types included) or the same exit
code and message; with several, the same exit code.
"""

import argparse
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from unexpect import estimators
from unexpect.cli import _Exit, _fail_flag, _make_parser, _read_json_file
from unexpect.cli_track import _build_config
from unexpect.engine import EngineConfig

# -- the reference, verbatim -------------------------------------------

_FLAG_RANGES = {
    "alpha": ("--alpha", "(0, 1) exclusive"),
    "window": ("--window", "a positive integer"),
    "beta": ("--beta", "(0, 1) exclusive"),
    "theta": ("--theta", "a finite positive number"),
    "min_hits": ("--min-hits", "a positive integer"),
    "capacity": ("--capacity", "a positive integer"),
    "epsilon": ("--epsilon", "'auto', 'off', or a float in [0, 1)"),
    "estimator": ("--estimator", "'iir' or 'fir'"),
    "warmup": ("--warmup", "'auto' or a nonnegative integer"),
}


def ref_build_config(args: argparse.Namespace) -> EngineConfig:
    """Merge config file values under explicit flags, then validate."""
    merged = EngineConfig().to_dict()
    if args.config is not None:
        file_cfg = _read_json_file(args.config, "config file")
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise _fail_flag(f"--config: unknown key(s) {sorted(unknown)}")
        merged.update(file_cfg)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value

    def bad(key):
        flag, rng = _FLAG_RANGES[key]
        return _fail_flag(f"{flag} must be {rng}, got {merged[key]!r}")

    def typed(key, kind):
        """merged[key] if it is a `kind`; a bool never counts as a number."""
        value = merged[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise bad(key)
        return value

    real = (int, float)
    if merged["estimator"] not in ("iir", "fir"):
        raise bad("estimator")
    alpha, window = typed("alpha", real), typed("window", int)
    if not 0.0 < alpha < 1.0:
        raise bad("alpha")
    if window < 1:
        raise bad("window")
    if merged["epsilon"] not in (estimators.EPSILON_AUTO, estimators.EPSILON_OFF):
        if isinstance(merged["epsilon"], bool):
            raise bad("epsilon")
        try:
            merged["epsilon"] = float(merged["epsilon"])
        except (TypeError, ValueError):
            raise bad("epsilon") from None
        if not 0.0 <= merged["epsilon"] < 1.0:
            raise bad("epsilon")
    if not 0.0 < typed("beta", real) < 1.0:
        raise bad("beta")
    if not 0.0 < typed("theta", real) < math.inf:  # also rejects NaN
        raise bad("theta")
    if typed("min_hits", int) < 1:
        raise bad("min_hits")
    if merged["warmup"] != "auto":
        if isinstance(merged["warmup"], (bool, float)):
            raise bad("warmup")
        try:
            merged["warmup"] = int(merged["warmup"])
        except (TypeError, ValueError):
            raise bad("warmup") from None
        if merged["warmup"] < 0:
            raise bad("warmup")
    if merged["capacity"] is not None and typed("capacity", int) < 1:
        raise bad("capacity")
    if not isinstance(merged["prune"], bool):
        raise _fail_flag(f"--config: prune must be true or false, got {merged['prune']!r}")
    return EngineConfig.from_dict(merged)


# -- values --------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
not_unit = st.one_of(st.floats(min_value=1.0), st.floats(max_value=0.0),
                     st.sampled_from([0, 1, 5]))
positive = st.integers(min_value=1, max_value=10 ** 6)
not_positive = st.integers(max_value=0)
wrong_type = st.sampled_from([True, False, None, "x", "3", [1]])
float_for_int = st.sampled_from([2.5, 3.0])

# Per field: good and bad config-file values, and good and bad flag
# strings (None: the flag cannot say it).
CONFIG_GOOD = {
    "estimator": st.sampled_from(["iir", "fir"]),
    "alpha": unit,
    "window": positive,
    "epsilon": st.one_of(st.sampled_from(["auto", "off", 0, "0.5", " 0.25 "]),
                         st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    "beta": unit,
    "theta": st.one_of(st.floats(min_value=1e-9, max_value=1e9), positive),
    "min_hits": positive,
    "warmup": st.one_of(st.just("auto"), st.integers(min_value=0, max_value=10 ** 6),
                        st.sampled_from(["5", "0"])),
    "capacity": st.one_of(st.none(), positive),
    "prune": st.booleans(),
}
CONFIG_BAD = {
    "estimator": st.sampled_from(["IIR", None, 1, True]),
    "alpha": st.one_of(not_unit, non_finite, wrong_type),
    "window": st.one_of(not_positive, float_for_int, non_finite, wrong_type),
    "epsilon": st.one_of(st.floats(min_value=1.0), st.floats(max_value=-1e-9),
                         non_finite, st.sampled_from([1, 7, True, False, None, "x",
                                                      "1.5", "nan", [1]])),
    "beta": st.one_of(not_unit, non_finite, wrong_type),
    "theta": st.one_of(st.floats(max_value=0.0), not_positive, non_finite,
                       wrong_type),
    "min_hits": st.one_of(not_positive, float_for_int, non_finite, wrong_type),
    "warmup": st.one_of(st.integers(max_value=-1), float_for_int, non_finite,
                        st.sampled_from([True, None, "x", "-3", "2.5", [2]])),
    "capacity": st.one_of(not_positive, float_for_int, non_finite,
                          st.sampled_from([True, "x", "3", [1]])),
    "prune": st.sampled_from([1, 0, "yes", "true", None, [True]]),
}
FLAG_GOOD = {
    "estimator": st.sampled_from(["iir", "fir"]),
    "alpha": unit.map(repr),
    "window": positive.map(str),
    "epsilon": st.one_of(st.sampled_from(["auto", "off", "0"]),
                         st.floats(min_value=0.0, max_value=1.0,
                                   exclude_max=True).map(repr)),
    "beta": unit.map(repr),
    "theta": st.floats(min_value=1e-9, max_value=1e9).map(repr),
    "min_hits": positive.map(str),
    "warmup": st.one_of(st.just("auto"), st.integers(min_value=0).map(str)),
    "capacity": positive.map(str),
    "prune": None,
}
FLAG_BAD = {
    "estimator": None,
    "alpha": st.one_of(not_unit, non_finite).map(repr),
    "window": not_positive.map(str),
    "epsilon": st.one_of(st.floats(min_value=1.0), st.floats(max_value=-1e-9),
                         non_finite).map(repr) | st.sampled_from(["x", "true", ""]),
    "beta": st.one_of(not_unit, non_finite).map(repr),
    "theta": st.one_of(st.floats(max_value=0.0), non_finite).map(repr),
    "min_hits": not_positive.map(str),
    "warmup": st.one_of(st.integers(max_value=-1).map(str),
                        st.sampled_from(["2.5", "x", "nan", ""])),
    "capacity": not_positive.map(str),
    "prune": None,
}
FIELDS = tuple(CONFIG_GOOD)
MISSING = object()


@st.composite
def field_settings(draw, bad_fields):
    """{field: (config value or MISSING, flag string or None)}; only the
    fields in `bad_fields` draw from the bad values."""
    settings_ = {}
    for field in FIELDS:
        config_values = (CONFIG_BAD if field in bad_fields else CONFIG_GOOD)[field]
        flag_values = (FLAG_BAD if field in bad_fields else FLAG_GOOD)[field]
        # Where the bad value goes: the file, the flag, or both (the flag wins).
        where = draw(st.sampled_from(["config", "flag", "both"]
                                     if flag_values is not None else ["config"]))
        if field not in bad_fields and draw(st.booleans()):
            where = "missing"
        config = MISSING
        flag = None
        if where in ("config", "both"):
            config = draw(config_values)
        if where == "both" and field in bad_fields:
            config = draw(CONFIG_GOOD[field])
        if where in ("flag", "both"):
            flag = draw(flag_values)
        settings_[field] = (config, flag)
    return settings_


def parse(settings_, workdir):
    config = {field: value for field, (value, _) in settings_.items()
              if value is not MISSING}
    argv = ["track"]
    for field, (_, flag) in settings_.items():
        if flag is not None:
            argv.append(f"--{field.replace('_', '-')}={flag}")
    if config:
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv += ["--config", path]
    return PARSER.parse_args(argv)


def outcome(build, args):
    """The config, as its JSON (which tells 0 from 0.0), or the exit."""
    try:
        return "config", json.dumps(build(args).to_dict(), sort_keys=True)
    except _Exit as exc:
        return exc.code, str(exc)


PARSER = _make_parser()


class TestConfigMergeMatchesReference:
    @settings(deadline=None, max_examples=600)
    @given(st.sampled_from(FIELDS + (None,)).flatmap(
        lambda bad: field_settings({bad} if bad else set())))
    def test_one_bad_value_gives_the_same_config_or_message(self, settings_):
        with tempfile.TemporaryDirectory() as workdir:
            args = parse(settings_, workdir)
            assert outcome(_build_config, args) == outcome(ref_build_config, args)

    @settings(deadline=None, max_examples=200)
    @given(st.sets(st.sampled_from(FIELDS), min_size=2).flatmap(field_settings))
    def test_several_bad_values_give_the_same_exit(self, settings_):
        with tempfile.TemporaryDirectory() as workdir:
            args = parse(settings_, workdir)
            new, ref = outcome(_build_config, args), outcome(ref_build_config, args)
            assert new[0] == ref[0]
            if ref[0] == "config":
                assert new == ref
