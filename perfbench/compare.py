"""Compare two result documents written by ``perfbench/run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints a warning for every host-fingerprint field on which the two
documents differ (their timings are then not comparable), whether the
simulated-statistics digests agree, and each metric side by side.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.host import fingerprint_warnings  # noqa: E402


def compare(base: dict, new: dict) -> list[str]:
    lines = fingerprint_warnings(base["host"], new["host"])
    for key in ("workload", "seed", "trace"):
        if base[key] != new[key]:
            lines.append(f"WARNING: {key} differs: {base[key]!r} vs {new[key]!r}")
    same = base["digest_sha256"] == new["digest_sha256"]
    lines.append(f"digest: {'same' if same else 'DIFFERENT'}")
    for name, m in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            lines.append(f"  {name:<36} {m['value']:>14.6g}  (missing in new)")
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        lines.append(
            f"  {name:<36} {m['value']:>14.6g} -> {other['value']:<14.6g} "
            f"x{ratio:.3f} {m['unit']}"
        )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
