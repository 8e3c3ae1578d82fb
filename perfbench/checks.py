"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means the output is
correct.  They take plain values (exit codes, printed text, bytes, shade
names) so the benchmark's tests can corrupt an output and see it rejected.
"""

from __future__ import annotations

import hashlib

# The PGM of test_snake_golden_hash: build_snake(1.001) rendered over
# (-5, -9, 8.5, 9) at 6 pixels per unit.
SNAKE_RES6_BBOX = (-5.0, -9.0, 8.5, 9.0)
SNAKE_RES6_SHA256 = "9f19fb2a89d27cdddae939032db05831e5bee9cb0a6274162ff07b05e51d2934"

SHADE_BYTE = {"black": 0, "white": 255, "boundary": 128}


def _option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def expected_verify_lines(argv) -> tuple[list[tuple[str, str]], int]:
    """Lines a correct `verify` run must print, as (prefix, suffix) pairs,
    and the number of `kind=enc verdict=yes` certificate lines."""
    kind = argv[1]
    if kind == "snake":
        depth = int(_option(argv, "--depth", "8"))
        lines = [("|AE|:", " ok"), ("|OE|:", " ok"), ("|OE'|:", " ok"),
                 ("max curvature:", " ok"), ("rolling-disk check:", " ok"),
                 ("12-dissection at", " ok"), ("anchor bound:", " ok"),
                 ("critical radii:", " ok"), (f"descent stages 0..{depth}:", " ok")]
        return lines, depth
    if kind == "dissection":
        n, depth = int(_option(argv, "--n", "0")), int(_option(argv, "--depth", "5"))
        wedges = n * depth
        lines = [("all radii < 1:", " ok"), (f"wedge case split: {wedges}/{wedges}", " ok"),
                 ("stage encirclements:", " ok")]
        return lines, depth
    if kind == "chessboard":
        depth = int(_option(argv, "--depth", "10"))
        # stages are exact power-of-two scalings, so clearances halve exactly
        lines = [("clearance ratios: min 0.500000000 max 0.500000000", ""),
                 ("certificate valid: True", "")]
        return lines, depth - 1
    if kind == "rolling":
        return [("failures: 0", ""), ("ok", "")], 0
    if kind == "sharp":
        n = _option(argv, "--n", "12")
        return [(f"{n}-dissection of the slid-disk script", ": ok")], 0
    raise ValueError(f"no expected output for verify {kind!r}")


def check_verify(argv, code, out: str) -> list[str]:
    """`verify` must exit 0 and print every expected verdict line."""
    problems = []
    if code != 0:
        problems.append(f"{' '.join(argv)}: exit code {code}")
    lines = out.splitlines()
    wanted, enc_yes = expected_verify_lines(argv)
    for prefix, suffix in wanted:
        if not any(line.startswith(prefix) and line.endswith(suffix) for line in lines):
            problems.append(f"{' '.join(argv[:2])}: missing line {prefix!r}...{suffix!r}")
    got = sum(1 for line in lines if "kind=enc verdict=yes" in line)
    if got != enc_yes:
        problems.append(f"{' '.join(argv[:2])}: {got} certified stage pairs, expected {enc_yes}")
    if any("FAIL" in line for line in lines):
        problems.append(f"{' '.join(argv[:2])}: printed FAIL")
    return problems


def raster_size(bbox, res: float) -> tuple[int, int]:
    xmin, ymin, xmax, ymax = bbox
    return max(1, round((xmax - xmin) * res)), max(1, round((ymax - ymin) * res))


def pixel_centre(bbox, res: float, i: int, j: int) -> tuple[float, float]:
    """Centre of pixel (row i, column j), rows counted from the top."""
    xmin, ymin, xmax, ymax = bbox
    w, h = raster_size(bbox, res)
    return xmin + (j + 0.5) * ((xmax - xmin) / w), ymax - (i + 0.5) * ((ymax - ymin) / h)


def split_pgm(data: bytes, width: int, height: int) -> tuple[bytes, list[str]]:
    """The pixel bytes of a binary PGM, and problems with its header or size."""
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header):
        return b"", [f"PGM header {data[:20]!r} is not {header!r}"]
    pixels = data[len(header):]
    if len(pixels) != width * height:
        return pixels, [f"PGM has {len(pixels)} pixels, expected {width * height}"]
    return pixels, []


def spot_mismatches(pixels: bytes, width: int, spots, expected_shades) -> list[str]:
    """Pixels at (i, j) spots must hold the byte of the expected shade name."""
    problems = []
    for (i, j), shade in zip(spots, expected_shades):
        want = SHADE_BYTE[shade]
        got = pixels[i * width + j] if i * width + j < len(pixels) else None
        if got != want:
            problems.append(f"pixel ({i}, {j}) is {got}, expected {want} ({shade})")
    return problems


def check_golden(data: bytes) -> list[str]:
    digest = hashlib.sha256(data).hexdigest()
    if digest != SNAKE_RES6_SHA256:
        return [f"snake res-6 PGM sha256 {digest} is not the golden {SNAKE_RES6_SHA256}"]
    return []


def check_query(shade: str, reference: str, reparsed: str, stationary) -> list[str]:
    """One membership query.

    shade is eval_script's verdict, reference is reference_eval's, reparsed is
    eval_script's after the serialize -> parse round trip, and stationary is
    the stationary number, or None when it raised BoundaryPoint.
    """
    problems = []
    if reference != "boundary" and shade != reference:
        problems.append(f"eval_script {shade} but reference_eval {reference}")
    if reparsed != shade:
        problems.append(f"verdict {shade} became {reparsed} after serialize -> parse")
    if stationary is not None:
        if shade == "black" and stationary % 2 != 1:
            problems.append(f"black point with even stationary number {stationary}")
        if shade == "white" and stationary % 2 != 0:
            problems.append(f"white point with odd stationary number {stationary}")
    return problems
