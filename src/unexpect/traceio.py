"""Trace text: the JSONL and CSV lines `track` writes for each record.

Kept apart from the engine, so that a reader of traces (`divergence
--from-trace`) loads the format without the scorer.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Optional

from .core import _PLAIN_STRING, _T

TRACE_CSV_HEADER = "t,symbol,c_stm,c_ltm,u_raw,u_clamped,novelty,change_flag"


def _num(value: Optional[float], absent: str) -> str:
    """Fixed 6-decimal rendering; `absent` for None and non-finite values."""
    if value is None or not isfinite(value):
        return absent
    return "%.6f" % value


def _jsonl_line(t, symbol, c_stm, c_ltm, u_raw, u_clamped, novelty, change_flag) -> str:
    """The one JSONL line layout, from the texts of its eight fields: t,
    the encoded symbol, four costs and two booleans ("true"/"false")."""
    return (f'{{"t": {t}, "symbol": {symbol}, "c_stm": {c_stm}, "c_ltm": {c_ltm}, '
            f'"u_raw": {u_raw}, "u_clamped": {u_clamped}, "novelty": {novelty}, '
            f'"change_flag": {change_flag}}}')


def _csv_line(t, symbol, c_stm, c_ltm, u_raw, u_clamped, novelty, change_flag) -> str:
    """The one CSV row layout, from the same eight field texts."""
    return f"{t},{symbol},{c_stm},{c_ltm},{u_raw},{u_clamped},{novelty},{change_flag}"


# The line trace_to_jsonl writes, for _line_blocks in readers that want
# only the symbol (group 1) and c_ltm (group 2, None for null). JSON
# decodes a line this matches to the same symbol and to float(group 2):
# the pattern allows no leading zero and no exponent. c_ltm is a cost
# its reader accepts as is: no sign, and at most 308 integer digits, so
# its float is finite (-0.000000 and longer costs are left to JSON).
_COST = r'-?(?:0|[1-9][0-9]*)\.[0-9]{6}'
_JSONL_PATTERN = (
    r'\{"t": ' + _T + r', "symbol": ' + _PLAIN_STRING + r', '
    r'"c_stm": (?:null|' + _COST + r'), '
    r'"c_ltm": (?:null|((?:0|[1-9][0-9]{0,307})\.[0-9]{6})), '
    r'"u_raw": (?:null|' + _COST + r'), "u_clamped": (?:null|' + _COST + r'), '
    r'"novelty": (?:true|false), "change_flag": (?:true|false)\}')


def trace_to_jsonl(record: tuple) -> str:
    """The JSONL line of a TraceRecord, without its newline."""
    t, symbol, c_stm, c_ltm, u_raw, u_clamped, novelty, change_flag = record
    # encode_basestring_ascii is what json.dumps does with a str.
    return _jsonl_line(
        t, encode_basestring_ascii(symbol),
        _num(c_stm, "null"), _num(c_ltm, "null"),
        _num(u_raw, "null"), _num(u_clamped, "null"),
        "true" if novelty else "false", "true" if change_flag else "false")


_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_field(text: str) -> str:
    """RFC 4180 field: quoted, with inner quotes doubled, only when needed."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def trace_to_csv(record: tuple) -> str:
    """The CSV row of a TraceRecord, without its newline."""
    t, symbol, c_stm, c_ltm, u_raw, u_clamped, novelty, change_flag = record
    return _csv_line(
        t, _csv_field(symbol),
        _num(c_stm, ""), _num(c_ltm, ""), _num(u_raw, ""), _num(u_clamped, ""),
        "true" if novelty else "false", "true" if change_flag else "false")


# Per emit, for Engine.step_block: the line function, the symbol's
# encoder and the text of an absent cost.
_TRACE_LINES = {
    "jsonl": (_jsonl_line, encode_basestring_ascii, "null"),
    "csv": (_csv_line, _csv_field, "")}
