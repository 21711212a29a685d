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
import math
import os
import shutil
import stat
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .blocks import DEFAULT_EPSILON, AnalysisResult, BlockGrid, classify_blocks, partition
from .image import GrayImage, load_pgm, pgm_header, pgm_parts
from .periodicity import PeriodEstimate, estimate_periods
from .synthesis import extract_texel, outline_parts, tiling_parts
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
    """Write the report, result.report_parts(periods), to json_out, or to
    stdout when json_out is None or empty (an empty --json-out means stdout)."""
    _write(json_out or None, result.report_parts(periods), "w")


def _parse_defects(text: str) -> list[tuple[int, int]]:
    """Parse '1,1;2,0' into [(1, 1), (2, 0)]."""
    blocks = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            i, j = map(int, part.split(","))
        except ValueError:
            raise ValueError(f"bad defect block {part!r}: expected 'row,col'") from None
        blocks.append((i, j))
    return blocks


def _classify(args) -> tuple[GrayImage, PeriodEstimate, BlockGrid, AnalysisResult]:
    """Load the input, take its periods (manual when given, DMF estimation
    otherwise), and classify its blocks. A manual estimate carries no curves.
    """
    img = load_pgm(Path(args.input).read_bytes())
    if args.period_rows is None:  # _check_flags saw both periods or neither
        est = estimate_periods(img, args.dmax_fraction)
        if est.row_degenerate:
            _warn("row periodicity is degenerate (no usable minima); consider --period-rows")
        if est.col_degenerate:
            _warn("column periodicity is degenerate (no usable minima); consider --period-cols")
    else:
        est = PeriodEstimate(args.period_rows, args.period_cols, [], [])
    grid = partition(img, est.row_period, est.col_period)
    return img, est, grid, classify_blocks(img, grid, args.threshold, args.epsilon)


def _dmf_csv(curves) -> Iterator[str]:
    """The (axis, values) DMF curves as the CSV lines csv.writer writes for
    them: their fields hold no comma, quote or line break, so none is quoted.
    Each forward difference is one float64 subtraction, as np.diff makes it."""
    yield "axis,d,dmf,forward_difference\r\n"
    for axis, values in curves:
        values = values.tolist()
        for d, value in enumerate(values, 1):
            fd = repr(values[d] - value) if d < len(values) else ""
            yield f"{axis},{d},{value!r},{fd}\r\n"


def cmd_analyze(args) -> int:
    _, est, _, result = _classify(args)
    manual = est.row_curve is None
    periods = {**est.to_dict(), "manual": manual}
    if args.csv_dmf:
        if manual:
            _warn("--csv-dmf ignored: DMF estimation was skipped (manual periods)")
        else:
            _write(args.csv_dmf, _dmf_csv((("rows", est.row_curve), ("columns", est.col_curve))), "w")
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
    out_w = img.width if args.width is None else args.width
    out_h = img.height if args.height is None else args.height
    # numpy sizes the strip of whole texels that tiling_parts builds in a C ssize_t
    strip = texel.height * -(-out_w // texel.width) * texel.width
    if strip > sys.maxsize:
        raise ValueError(f"--width {out_w} makes a tiling strip of {strip} bytes "
                         f"from a {texel.width}x{texel.height} texel, more than {sys.maxsize}")
    # the strip is built before any output is opened: a tiling too large fails first
    raster = tiling_parts(texel, out_w, out_h)
    header = pgm_header(out_w, out_h)
    out, need, free = Path(args.output), len(header) + out_w * out_h, math.inf
    # a file output its disk cannot hold is refused before anything is
    # written, the file it replaces counted as free; a device or pipe is not
    if out.is_file():
        free = shutil.disk_usage(out).free + out.stat().st_size
    elif not out.exists() and out.parent.is_dir():
        free = shutil.disk_usage(out.parent).free
    if need > free:
        raise OSError(f"output {out} needs {need} bytes, but only {free} bytes are free")
    if args.texel_out:
        _write(args.texel_out, pgm_parts(texel))
    _write(args.output, itertools.chain((header,), raster))
    return EXIT_OK


def cmd_detect(args) -> int:
    img, _, grid, result = _classify(args)
    flagged = ~result.conforming.reshape(grid.n_rows, grid.n_cols)
    # outlines are painted one block row at a time as the image is written,
    # and the report needs no pixels, so the image is dropped before it
    raster = outline_parts(img, grid, flagged, args.highlight_value, args.thickness)
    _write(args.output, itertools.chain((pgm_header(img.width, img.height),), raster))
    del img
    _emit_json(result, json_out=args.json_out)
    return EXIT_OK if result.conforming.all() else EXIT_ANOMALIES


def cmd_generate(args) -> int:
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
    _write(args.output, pgm_parts(img))
    _write(args.sidecar, (gt.to_json() + "\n",), "w")
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


def _check_flags(args) -> None:
    """Reject numeric flags the library would misread, one manual period
    without the other, an output path no file can be written at, an empty
    one among them (an empty --json-out means stdout), and any two outputs
    that are regular files, or not there yet, and resolve to one file,
    before any work. generate's sidecar is one of the outputs; its path is
    derived here once, as args.sidecar."""
    if not 0 <= getattr(args, "threshold", 0) < math.inf:
        raise ValueError(f"--threshold must be finite and >= 0, got {args.threshold}")
    if not 0 < getattr(args, "epsilon", 1) < math.inf:
        raise ValueError(f"--epsilon must be finite and > 0, got {args.epsilon}")
    if not 0 < getattr(args, "dmax_fraction", 1) <= 1:
        raise ValueError(f"--dmax-fraction must be in (0, 1], got {args.dmax_fraction}")
    if (getattr(args, "period_rows", None) is None) != (getattr(args, "period_cols", None) is None):
        raise ValueError("--period-rows and --period-cols must be given together")
    if getattr(args, "thickness", 1) < 1:
        raise ValueError(f"--thickness must be >= 1, got {args.thickness}")
    if not 0 <= getattr(args, "highlight_value", 0) <= 255:
        raise ValueError(f"--highlight-value must be in [0, 255], got {args.highlight_value}")
    for name in ("width", "height"):
        if getattr(args, name, None) is not None and getattr(args, name) <= 0:
            raise ValueError(f"--{name} must be positive, got {getattr(args, name)}")
    # numpy sizes arrays and draws noise in C integers of sys.maxsize at most;
    # the size flags a command takes multiply to its output's pixel count
    sizes = {f"--{name.replace('_', '-')}": getattr(args, name) for name in (
        "width", "height", "texel_h", "texel_w", "reps_r", "reps_c",
    ) if getattr(args, name, None) is not None}
    for flag, value in [*sizes.items(), ("--noise-amplitude", getattr(args, "noise_amplitude", 0))]:
        if value > sys.maxsize:
            raise ValueError(f"{flag} must be at most {sys.maxsize}, got {value}")
    if math.prod(sizes.values()) > sys.maxsize:
        raise ValueError(f"{' * '.join(sizes)} make {math.prod(sizes.values())} pixels, "
                         f"more than {sys.maxsize}")
    paths = {flag: vars(args).get(flag.lstrip("-").replace("-", "_"))
             for flag in ("output", "--csv-dmf", "--texel-out", "--json-out")}
    for flag, path in paths.items():
        if path == "" and flag != "--json-out":
            raise ValueError(f"{flag} is an empty path")
    # a device such as /dev/stdout passes: it is no directory, and /dev is one
    outputs = {flag: Path(path) for flag, path in paths.items() if path}
    if args.command == "generate":  # the ground-truth sidecar is an output too
        outputs["sidecar"] = args.sidecar = Path(args.output).with_suffix(".json")
    for flag, out in outputs.items():
        if out.is_dir() or not out.parent.is_dir():
            raise ValueError(f"{flag} {out} is a directory" if out.is_dir() else
                             f"{flag} {out}: {out.parent} is not a directory")
    # a device such as /dev/stdout may take two outputs in turn
    files = {flag: out.resolve() for flag, out in outputs.items()
             if out.is_file() or not out.exists()}
    for (a, path_a), (b, path_b) in itertools.combinations(files.items(), 2):
        if path_a == path_b:
            raise ValueError(f"{a} and {b} name the same file {outputs[b]}")


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
