"""Labels, durable result records, summary tables, and plots.

The label grammar encodes a configuration compactly: interface letter
(P = positional reads, A = kernel async queue, U = completion ring), then
for async kinds the queue size, "B" plus the batch size, optional "M"
(fixed buffers) and "F" (fixed files), and a trailing "T" plus the thread
count when more than one thread is used.  ``encode_label`` emits the
canonical token order (M before F); ``parse_label`` accepts M/F either way.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .engines import EngineConfig, RunRecord
from .errors import LabelParseError
from .sweep import select_best

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Label:
    text: str
    #: properties the grammar cannot express (polled reads, kernel poll thread)
    note: str = ""


def encode_label(engine: EngineConfig, threads: int) -> Label:
    note = ""
    if engine.kind in ("sync", "polled", "pool"):
        text = "P"
        if engine.kind == "polled":
            note = "+poll"
    else:
        letter = "A" if engine.kind == "aio" else "U"
        text = f"{letter}{engine.queue_size}B{engine.batch_size}"
        if engine.fixed_buffers:
            text += "M"
        if engine.fixed_files:
            text += "F"
        if engine.kernel_poll:
            note = "+kernel-poll"
    if threads > 1:
        text += f"T{threads}"
    return Label(text=text, note=note)


#: the seven fields of a label, each optional so that a refusal can name
#: where the text stopped matching; ASCII digits only, as encode_label writes
_LABEL = re.compile(r"([PAU]?)(\d*)(B?)(\d*)([MF]*)(?:(T)(\d*))?", re.ASCII)


def parse_label(s: str) -> tuple[EngineConfig, int]:
    """Inverse of encode_label over the canonical-label domain."""
    m = _LABEL.match(s)
    iface, queue, b, batch, flags, t, threads = m.groups()
    if not s:
        raise LabelParseError(s, 0, "empty label")
    if not iface:
        raise LabelParseError(s, 0, "expected interface letter P, A, or U")
    if iface == "P" and m.end(5) > 1:
        raise LabelParseError(s, 1, "unexpected trailing characters")
    if iface in "AU":
        if not queue:
            raise LabelParseError(s, 1, "expected digits")
        if not b:
            raise LabelParseError(s, m.start(3), "expected 'B' before batch size")
        if not batch:
            raise LabelParseError(s, m.start(4), "expected digits")
        if iface == "A" and flags:
            raise LabelParseError(s, m.start(5), "unexpected trailing characters")
        for k, flag in enumerate(flags):
            if flag in flags[:k]:
                raise LabelParseError(s, m.start(5) + k, f"duplicate flag {flag}")
    if t and not threads:
        raise LabelParseError(s, m.start(7), "expected digits")
    if t and int(threads) < 2:
        raise LabelParseError(s, m.end(7) - 1, "thread suffix requires >= 2")
    if m.end() != len(s):
        raise LabelParseError(s, m.end(), "unexpected trailing characters")

    nthreads = int(threads) if t else 1
    if iface == "P":
        return EngineConfig(kind="pool" if t else "sync"), nthreads
    try:
        config = EngineConfig(
            kind="aio" if iface == "A" else "uring",
            queue_size=int(queue), batch_size=int(batch),
            fixed_buffers="M" in flags, fixed_files="F" in flags)
    except ValueError as exc:
        raise LabelParseError(s, 1, str(exc)) from exc
    return config, nthreads


class ResultStore:
    """Append-only JSON-lines store of run records, one per line."""

    def __init__(self, path: str):
        self.path = path

    def append(self, record: RunRecord) -> None:
        d = record.as_dict()
        d.setdefault("schema_version", SCHEMA_VERSION)
        with open(self.path, "a") as f:
            f.write(json.dumps(d, sort_keys=True) + "\n")

    def read(self) -> tuple[list[RunRecord], int]:
        """All valid records plus the count of skipped lines: corrupt JSON,
        missing or mistyped fields, or values that fail validation."""
        records: list[RunRecord] = []
        skipped = 0
        try:
            f = open(self.path)
        except FileNotFoundError:
            return [], 0
        with f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                    d.pop("schema_version", None)
                    records.append(RunRecord.from_dict(d))
                except (ValueError, KeyError, TypeError, AttributeError):
                    skipped += 1
        return records, skipped


def latency_table(records: list[RunRecord]) -> str:
    """CSV of min/mean/p99/p99.9/max per (label, block size)."""
    header = "block_size,label,count,min_us,mean_us,p99_us,p999_us,max_us"
    rows = []
    for rec in records:
        ls = rec.latency
        rows.append((rec.workload["block_size"], rec.label,
                     f"{rec.workload['block_size']},{rec.label},{ls.count},"
                     f"{ls.min_us},{ls.mean_us:.3f},{ls.p99_us},{ls.p999_us},"
                     f"{ls.max_us}"))
    rows.sort(key=lambda r: (r[0], r[1]))
    return "\n".join([header] + [r[2] for r in rows]) + "\n"


# --- scatter plot ----------------------------------------------------------

_SHAPES = ("circle", "square", "triangle", "diamond", "cross", "pentagon",
           "star", "hexagon")

_W, _H = 960, 640
_ML, _MR, _MT, _MB = 80, 30, 40, 90


def _shape_for_blocks(records) -> dict[int, str]:
    sizes = sorted({rec.workload["block_size"] for rec in records})
    return {b: _SHAPES[i % len(_SHAPES)] for i, b in enumerate(sizes)}


def _shade(pct: float, max_pct: float) -> str:
    # white at zero CPU, darkening toward the busiest record
    frac = min(pct / max_pct, 1.0) if max_pct > 0 else 0.0
    v = int(round(255 * (1.0 - frac)))
    return f"#{v:02x}{v:02x}{v:02x}"


def _marker(shape: str, x: float, y: float, r: float, fill: str) -> str:
    style = f'fill="{fill}" stroke="black" stroke-width="1"'
    if shape == "circle":
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" {style}/>'
    if shape == "square":
        return (f'<rect x="{x - r:.2f}" y="{y - r:.2f}" width="{2 * r:.2f}" '
                f'height="{2 * r:.2f}" {style}/>')
    if shape == "triangle":
        pts = f"{x:.2f},{y - r:.2f} {x - r:.2f},{y + r:.2f} {x + r:.2f},{y + r:.2f}"
        return f'<polygon points="{pts}" {style}/>'
    if shape == "diamond":
        pts = f"{x:.2f},{y - r:.2f} {x + r:.2f},{y:.2f} {x:.2f},{y + r:.2f} {x - r:.2f},{y:.2f}"
        return f'<polygon points="{pts}" {style}/>'
    if shape == "cross":
        t = r / 3
        pts = (f"{x - t:.2f},{y - r:.2f} {x + t:.2f},{y - r:.2f} {x + t:.2f},{y - t:.2f} "
               f"{x + r:.2f},{y - t:.2f} {x + r:.2f},{y + t:.2f} {x + t:.2f},{y + t:.2f} "
               f"{x + t:.2f},{y + r:.2f} {x - t:.2f},{y + r:.2f} {x - t:.2f},{y + t:.2f} "
               f"{x - r:.2f},{y + t:.2f} {x - r:.2f},{y - t:.2f} {x - t:.2f},{y - t:.2f}")
        return f'<polygon points="{pts}" {style}/>'
    # remaining shapes: regular polygons
    n = {"pentagon": 5, "star": 10, "hexagon": 6}.get(shape, 6)
    pts = []
    for i in range(n):
        rr = r if (shape != "star" or i % 2 == 0) else r / 2
        a = -math.pi / 2 + 2 * math.pi * i / n
        pts.append(f"{x + rr * math.cos(a):.2f},{y + rr * math.sin(a):.2f}")
    return f'<polygon points="{" ".join(pts)}" {style}/>'


def _fmt_block(b: int) -> str:
    if b >= 1 << 20:
        return f"{b >> 20}MiB"
    return f"{b >> 10}KiB"


def _best_per_block(records: list[RunRecord]) -> set[int]:
    """ids of the best record (by select_best) of each block size."""
    groups: dict[int, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault(rec.workload["block_size"], []).append(rec)
    return {id(select_best(g)) for g in groups.values()}


def scatter_points_csv(records: list[RunRecord]) -> str:
    """The plotted points as CSV so any external stack can re-render."""
    header = "label,block_size,throughput_mb_s,p999_us,cpu_percent_of_core,best"
    best_ids = _best_per_block(records)
    lines = [header]
    for rec in records:
        lines.append(f"{rec.label},{rec.workload['block_size']},"
                     f"{rec.throughput_mb_s:.6f},{rec.latency.p999_us},"
                     f"{rec.cpu.percent_of_core:.3f},"
                     f"{1 if id(rec) in best_ids else 0}")
    return "\n".join(lines) + "\n"


def scatter_summary(records: list[RunRecord]) -> str:
    """SVG scatter: x = throughput, y = p99.9 latency on a log scale.

    Marker shape encodes block size, fill shade encodes CPU usage, every
    point carries its label, and the best record per block size (maximum
    throughput with the standard tie-breaks) is drawn larger.
    """
    if not records:
        raise ValueError("no records to plot")

    shapes = _shape_for_blocks(records)
    max_pct = max(rec.cpu.percent_of_core for rec in records)
    xs = [rec.throughput_mb_s for rec in records]
    ys = [max(rec.latency.p999_us, 1) for rec in records]
    xmax = max(xs) * 1.05 or 1.0
    ylo = 10 ** math.floor(math.log10(min(ys)))
    yhi = 10 ** math.ceil(math.log10(max(ys)) + 1e-12)
    if yhi == ylo:
        yhi = ylo * 10

    def sx(v: float) -> float:
        return _ML + (v / xmax) * (_W - _ML - _MR)

    def sy(v: float) -> float:
        f = (math.log10(max(v, 1)) - math.log10(ylo)) / (
            math.log10(yhi) - math.log10(ylo))
        return _H - _MB - f * (_H - _MT - _MB)

    best_ids = _best_per_block(records)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="{_H - 8}" text-anchor="middle" '
        f'font-size="13">throughput, MB/s</text>',
        f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {_H / 2:.0f})">latency p99.9, &#181;s (log)</text>',
    ]
    # axes
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
               f'y2="{_H - _MB}" stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
               f'stroke="black"/>')
    for i in range(6):
        v = xmax * i / 5
        x = sx(v)
        out.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_H - _MB + 20}" text-anchor="middle" '
                   f'font-size="11">{v:.0f}</text>')
    v = ylo
    while v <= yhi:
        y = sy(v)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-size="11">{v:g}</text>')
        v *= 10

    def point_key(rec: RunRecord):
        return (rec.label, rec.started_at, rec.workload["block_size"],
                rec.throughput_mb_s, rec.latency.p999_us)

    for rec in sorted(records, key=point_key):
        x, y = sx(rec.throughput_mb_s), sy(max(rec.latency.p999_us, 1))
        r = 9.0 if id(rec) in best_ids else 5.0
        shape = shapes[rec.workload["block_size"]]
        out.append(_marker(shape, x, y, r, _shade(rec.cpu.percent_of_core, max_pct)))
        out.append(f'<text x="{x + r + 2:.2f}" y="{y + 3:.2f}" '
                   f'font-size="9">{rec.label}</text>')

    # legend: shapes per block size, then the CPU shade ramp
    lx, ly = _ML, _H - _MB + 40
    for b in sorted(shapes):
        out.append(_marker(shapes[b], lx + 6, ly, 5.0, "white"))
        out.append(f'<text x="{lx + 16}" y="{ly + 4}" font-size="11">'
                   f'{_fmt_block(b)}</text>')
        lx += 80
    out.append(f'<text x="{lx + 8}" y="{ly + 4}" font-size="11">'
               f'fill: white = 0% CPU, black = {max_pct:.0f}% of a core; '
               f'large marker = best per block size</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
