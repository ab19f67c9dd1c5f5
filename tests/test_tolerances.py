import re
from pathlib import Path

from subent import tolerances

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_tolerances() -> dict[str, float]:
    """NAME = value pairs of the README bullet that cites the table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- Tolerances"))
    bullet = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        bullet.append(line)
    pairs = re.findall(r"`([A-Z][A-Z_]+)` = (\d+(?:\.\d+)?e-?\d+)", " ".join(bullet))
    return {name: float(value) for name, value in pairs}


def test_readme_cites_the_tolerance_table():
    table = {
        name: value for name, value in vars(tolerances).items() if name.isupper()
    }
    assert readme_tolerances() == table
