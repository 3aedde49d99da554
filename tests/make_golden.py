"""Regenerate the golden files for the scripted CLI cases.

Usage: python tests/make_golden.py [--check]
"""

import io
import pathlib
import sys

from golden_cases import CASES, JSON_CASES

from hahnforge.cli import run

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def render(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, out=out, err=err, stdin=io.StringIO())
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err.getvalue()}")
    return out.getvalue()


def main(check=False):
    GOLDEN_DIR.mkdir(exist_ok=True)
    stale = []
    for name, argv in CASES + JSON_CASES:
        text = render(argv)
        path = GOLDEN_DIR / f"{name}.txt"
        if check:
            if not path.exists() or path.read_text() != text:
                stale.append(name)
        else:
            path.write_text(text)
            print(f"wrote {path.name} ({len(text)} bytes)")
    if check and stale:
        raise SystemExit(f"stale golden files: {stale}")


if __name__ == "__main__":
    main(check="--check" in sys.argv[1:])
