"""Trace text: the JSONL and CSV lines `track` writes for each record.

Kept apart from the engine, so that a reader of traces (`divergence
--from-trace`) loads the format without the scorer.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Optional

TRACE_CSV_HEADER = "t,symbol,c_stm,c_ltm,u_raw,u_clamped,novelty,change_flag"


def _num(value: Optional[float], absent: str) -> str:
    """Fixed 6-decimal rendering; `absent` for None and non-finite values."""
    if value is None or not isfinite(value):
        return absent
    return "%.6f" % value


_JSONL_LINE = ('{"t": %s, "symbol": %s, "c_stm": %s, "c_ltm": %s, '
               '"u_raw": %s, "u_clamped": %s, "novelty": %s, "change_flag": %s}')
_CSV_LINE = "%s,%s,%s,%s,%s,%s,%s,%s"
# The line trace_to_jsonl writes, for readers that want only the symbol
# (group 1) and c_ltm (group 2, None for null). JSON decodes a line this
# matches to the same symbol and to float(group 2): the pattern allows
# no leading zero, no exponent and no raw control character, and the
# symbol holds no escape, JSON's or an undecodable byte's. At most 19
# digits of t, so that a t int() would refuse is left to JSON. c_ltm is
# a cost its reader accepts as is: no sign, and at most 308 integer
# digits, so its float is finite (-0.000000 and longer costs are left to
# JSON). A line starts at ^ and ends at its newline or the text's end
# (multi-line mode), so that one findall checks a block of lines.
# Compiled by its reader, not at import.
_COST = r'-?(?:0|[1-9][0-9]*)\.[0-9]{6}'
_JSONL_PATTERN = (
    r'(?m)^\{"t": (?:0|[1-9][0-9]{0,18}), '
    r'"symbol": "([^"\\\x00-\x1f\udc80-\udcff]*)", '
    r'"c_stm": (?:null|' + _COST + r'), '
    r'"c_ltm": (?:null|((?:0|[1-9][0-9]{0,307})\.[0-9]{6})), '
    r'"u_raw": (?:null|' + _COST + r'), "u_clamped": (?:null|' + _COST + r'), '
    r'"novelty": (?:true|false), "change_flag": (?:true|false)\}(?:\n|\Z)')


def trace_to_jsonl(record: tuple) -> str:
    """The JSONL line of a TraceRecord, without its newline."""
    t, symbol, c_stm, c_ltm, u_raw, u_clamped, novelty, change_flag = record
    # encode_basestring_ascii is what json.dumps does with a str.
    return _JSONL_LINE % (
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
    return _CSV_LINE % (
        t, _csv_field(symbol),
        _num(c_stm, ""), _num(c_ltm, ""), _num(u_raw, ""), _num(u_clamped, ""),
        "true" if novelty else "false", "true" if change_flag else "false")


# Per emit, for Engine.step_block: the line of a non-novel record with four
# finite costs, whose seven %s slots take t, the encoded symbol, the "%.6f"
# texts of the four costs and the flag; the encoder; any record's serializer.
_NOT_NOVEL = ("%s",) * 6 + ("false", "%s")
_TRACE_LINES = {
    "jsonl": (_JSONL_LINE % _NOT_NOVEL, encode_basestring_ascii, trace_to_jsonl),
    "csv": (_CSV_LINE % _NOT_NOVEL, _csv_field, trace_to_csv)}
