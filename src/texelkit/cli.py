"""Command-line front end.

Subcommands: analyze, synthesize, detect, generate. JSON reports go to
stdout (or --json-out); images are written only to explicit output paths;
warnings and diagnostics go to stderr.

Exit codes: 0 success; 1 anomalies found (detect); 2 usage, I/O, or parse
error; 3 no conforming block to synthesize from (synthesize).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .blocks import DEFAULT_EPSILON, AnalysisResult, BlockGrid, classify_blocks, partition
from .image import GrayImage, load_pgm, pgm_header, pgm_parts
from .periodicity import PeriodEstimate, estimate_periods, forward_difference
from .synthesis import extract_texel, highlight_anomalies, tiling_parts
from .testgen import GroundTruth, generate, random_texel

EXIT_OK = 0
EXIT_ANOMALIES = 1
EXIT_ERROR = 2
EXIT_NO_REPRESENTATIVE = 3


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _write(path: str | Path | None, pieces: Iterable, mode: str = "wb") -> None:
    """Write the pieces to `path` as each comes, none joined, or to stdout,
    which takes text, when `path` is None. Text (mode "w") is written with
    newline="", so a "\r\n" stays as given. If the writes fail part way (out
    of memory, a full disk), the file is removed when `path` names a regular
    file, so no truncated output is left; a device, pipe or link it names is
    left alone."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    regular = False
    try:
        with open(path, mode, newline=None if "b" in mode else "") as fh:
            regular = stat.S_ISREG(os.lstat(path).st_mode)
            fh.writelines(pieces)
    except BaseException:
        if regular:
            Path(path).unlink(missing_ok=True)
        raise


def _emit_json(result: AnalysisResult, periods: dict | None = None,
               json_out: str | None = None) -> None:
    """Write the report to json_out, or to stdout when json_out is None or
    empty: json.dumps(report, indent=2, allow_nan=False) plus a newline,
    byte for byte, where report is result.to_dict() (detect), or {"periods":
    periods, "analysis": result.to_dict()} when periods are given (analyze).

    The rest of the report is dumped once with a marker string where the
    blocks go, before the output is opened, and result.blocks_json()
    streams them in between, so no piece holds more than one run of blocks.
    """
    report, pad = {**result.head(), "blocks": "\0"}, "  "
    if periods is not None:
        report, pad = {"periods": periods, "analysis": report}, "    "
    before, after = json.dumps(report, indent=2, allow_nan=False).split('"\\u0000"')
    pieces = itertools.chain((before,), result.blocks_json(pad), (after + "\n",))
    _write(json_out or None, pieces, "w")


def _parse_defects(text: str) -> list[tuple[int, int]]:
    """Parse '1,1;2,0' into [(1, 1), (2, 0)]."""
    blocks = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ValueError(f"bad defect block {part!r}: expected 'row,col'")
        blocks.append((int(pieces[0]), int(pieces[1])))
    return blocks


def _classify(args) -> tuple[GrayImage, PeriodEstimate, BlockGrid, AnalysisResult]:
    """Load the input, take its periods (manual when given, DMF estimation
    otherwise), and classify its blocks. A manual estimate carries no curves.
    """
    img = load_pgm(Path(args.input).read_bytes())
    if args.period_rows is None and args.period_cols is None:
        est = estimate_periods(img, args.dmax_fraction)
        if est.row_degenerate:
            _warn("row periodicity is degenerate (no usable minima); consider --period-rows")
        if est.col_degenerate:
            _warn("column periodicity is degenerate (no usable minima); consider --period-cols")
    elif args.period_rows is None or args.period_cols is None:
        raise ValueError("--period-rows and --period-cols must be given together")
    else:
        est = PeriodEstimate(args.period_rows, args.period_cols, [], [])
    grid = partition(img, est.row_period, est.col_period)
    return img, est, grid, classify_blocks(img, grid, args.threshold, args.epsilon)


def _dmf_csv(curves) -> Iterator[str]:
    """Both DMF curves as the CSV lines csv.writer writes for them: their
    fields hold no comma, quote or line break, so none is quoted."""
    yield "axis,d,dmf,forward_difference\r\n"
    for curve in curves:
        diffs = forward_difference(curve)
        for d in range(1, curve.d_max + 1):
            fd = repr(float(diffs[d - 1])) if d < curve.d_max else ""
            yield f"{curve.axis},{d},{curve.value_at(d)!r},{fd}\r\n"


def cmd_analyze(args) -> int:
    _, est, _, result = _classify(args)
    manual = est.row_curve is None
    periods = {**est.to_dict(), "manual": manual}
    if args.csv_dmf:
        if manual:
            _warn("--csv-dmf ignored: DMF estimation was skipped (manual periods)")
        else:
            _write(args.csv_dmf, _dmf_csv((est.row_curve, est.col_curve)), "w")
    if result.representative is None:
        _warn("no block conforms at this threshold; no representative texel")
    _emit_json(result, periods, args.json_out)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    img, _, grid, result = _classify(args)
    if result.representative is None:
        print(
            "error: no block conforms at this threshold; nothing to synthesize from",
            file=sys.stderr,
        )
        return EXIT_NO_REPRESENTATIVE
    texel = extract_texel(img, grid, result.representative)
    if args.texel_out:
        _write(args.texel_out, pgm_parts(texel))
    out_w = img.width if args.width is None else args.width
    out_h = img.height if args.height is None else args.height
    # the strip is built before the output is opened: a tiling too large fails first
    raster = tiling_parts(texel, out_w, out_h)
    _write(args.output, itertools.chain((pgm_header(out_w, out_h),), raster))
    return EXIT_OK


def cmd_detect(args) -> int:
    img, _, grid, result = _classify(args)
    # the outlined image is only written, so it is gone before the report
    _write(args.output, pgm_parts(highlight_anomalies(
        img, grid, result.anomalies, args.highlight_value, args.thickness
    )))
    _emit_json(result, json_out=args.json_out)
    return EXIT_ANOMALIES if result.anomalies else EXIT_OK


def cmd_generate(args) -> int:
    out = Path(args.output)
    sidecar = out.with_suffix(".json")
    if sidecar == out:
        raise ValueError(f"output {out} would be overwritten by its ground-truth sidecar")
    gt = GroundTruth(
        texel_h=args.texel_h,
        texel_w=args.texel_w,
        reps_r=args.reps_r,
        reps_c=args.reps_c,
        defect_blocks=_parse_defects(args.defects) if args.defects else [],
        noise_amplitude=args.noise_amplitude,
        seed=args.seed,
    )
    texel = random_texel(gt.texel_h, gt.texel_w, gt.seed)
    img = generate(gt, texel)
    _write(out, pgm_parts(img))
    _write(sidecar, (gt.to_json() + "\n",), "w")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one `error:` line and exit 2;
    subparsers inherit the class.
    """

    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {message}\n")


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=0.10,
                   help="max per-feature relative deviation for a block to conform "
                        "(default 0.10; use 0.02 for clean synthetic textures)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="denominator guard for relative deviations (default 1e-6)")
    p.add_argument("--dmax-fraction", type=float, default=0.5,
                   help="fraction of each axis to probe for periodicity (default 0.5)")
    p.add_argument("--period-rows", type=int, default=None,
                   help="manual row period; skips DMF estimation (needs --period-cols)")
    p.add_argument("--period-cols", type=int, default=None,
                   help="manual column period; skips DMF estimation (needs --period-rows)")
    p.add_argument("--json-out", default=None,
                   help="write the JSON report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="texelkit",
        description="Near-regular texture analysis, synthesis, and defect detection "
                    "for grayscale PGM images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate periodicity and classify blocks")
    p.add_argument("input", help="input PGM image")
    _add_analysis_flags(p)
    p.add_argument("--csv-dmf", default=None,
                   help="dump both DMF curves as CSV (axis,d,dmf,forward_difference)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="tile the representative texel into a new image")
    p.add_argument("input", help="input PGM image")
    p.add_argument("output", help="output PGM path")
    _add_analysis_flags(p)
    p.add_argument("--width", type=int, default=None,
                   help="output width (default: input width)")
    p.add_argument("--height", type=int, default=None,
                   help="output height (default: input height)")
    p.add_argument("--texel-out", default=None,
                   help="also write the extracted texel to this PGM path")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("detect", help="flag and outline statistically deviant blocks")
    p.add_argument("input", help="input PGM image")
    p.add_argument("output", help="output PGM path for the highlighted image")
    _add_analysis_flags(p)
    p.add_argument("--highlight-value", type=int, default=255,
                   help="gray level for anomaly outlines (default 255)")
    p.add_argument("--thickness", type=int, default=1,
                   help="outline thickness in pixels (default 1)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("generate", help="write a synthetic test texture plus ground truth")
    p.add_argument("output", help="output PGM path (sidecar JSON goes next to it)")
    p.add_argument("--texel-h", type=int, required=True, help="texel height in pixels")
    p.add_argument("--texel-w", type=int, required=True, help="texel width in pixels")
    p.add_argument("--reps-r", type=int, required=True, help="tile rows")
    p.add_argument("--reps-c", type=int, required=True, help="tile columns")
    p.add_argument("--defects", default=None,
                   help="defect blocks as 'row,col;row,col;...' grid indices")
    p.add_argument("--noise-amplitude", type=int, default=0,
                   help="uniform noise amplitude in gray levels (default 0)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.set_defaults(func=cmd_generate)

    return parser


# the two outputs of a command that would overwrite each other if they named one file
_OUTPUT_PAIRS = {
    "analyze": ("csv_dmf", "json_out"),
    "synthesize": ("output", "texel_out"),
    "detect": ("output", "json_out"),
}


def _check_flags(args) -> None:
    """Reject numeric flags the library would misread, and two outputs that
    name one file, before any work."""
    if not 0 <= getattr(args, "threshold", 0) < math.inf:
        raise ValueError(f"--threshold must be finite and >= 0, got {args.threshold}")
    if not 0 < getattr(args, "epsilon", 1) < math.inf:
        raise ValueError(f"--epsilon must be finite and > 0, got {args.epsilon}")
    if not 0 < getattr(args, "dmax_fraction", 1) <= 1:
        raise ValueError(f"--dmax-fraction must be in (0, 1], got {args.dmax_fraction}")
    if getattr(args, "thickness", 1) < 1:
        raise ValueError(f"--thickness must be >= 1, got {args.thickness}")
    if not 0 <= getattr(args, "highlight_value", 0) <= 255:
        raise ValueError(f"--highlight-value must be in [0, 255], got {args.highlight_value}")
    for name in ("width", "height"):
        if getattr(args, name, None) is not None and getattr(args, name) <= 0:
            raise ValueError(f"--{name} must be positive, got {getattr(args, name)}")
    pair = _OUTPUT_PAIRS.get(args.command, ())
    paths = [Path(getattr(args, dest)) for dest in pair if getattr(args, dest)]
    # a device such as /dev/stdout may take both outputs in turn
    files = len(paths) == 2 and all(p.is_file() or not p.exists() for p in paths)
    if files and paths[0].resolve() == paths[1].resolve():
        a, b = (dest if dest == "output" else "--" + dest.replace("_", "-") for dest in pair)
        raise ValueError(f"{a} and {b} name the same file {paths[1]}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError, OverflowError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
