"""The two scripts under scripts/, run end to end as fresh processes."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_export_s2_picture(tmp_path):
    done = run_script("export_s2_picture.py", "--resolution", "16", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    outdir = tmp_path / "out_s2"
    sections = [f"section_{kind}_{mu}.csv" for kind in ("quad-affine", "quad-translate") for mu in ("0.5", "1", "1.5")]
    sections.append("section_half-space.csv")
    leaves = [f"leaf_{c}.csv" for c in ("0", "1", "2", "4")]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(sections + leaves)
    assert done.stdout.splitlines() == [f"wrote {outdir.relative_to(tmp_path) / name}" for name in sections + leaves]
    for name, header, rows in [(s, "dx,dy,dz", 16) for s in sections] + [(v, "x,y,z", 16 * 16) for v in leaves]:
        lines = (outdir / name).read_text().splitlines()
        assert lines[0] == header and len(lines) == 1 + rows, name
        assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_monotonicity_survey(tmp_path):
    done = run_script("monotonicity_survey.py", "--points", "4", "--dirs", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split()[:3] == ["cone", "/", "r"] and set(lines[1]) == {"-"}
    table = lines[2:6]
    assert [row[:14].strip() for row in table] == ["quad mu=0.75", "quad mu=1.5", "quad mu=2.25", "loewner"]
    for row in table:
        cells = row[15:].split()
        assert len(cells) == 7
        # r in {0.25, 0.5, 0.75, 1} is clean, r in {1.5, 2, 3} is not
        assert [cell.endswith("*") for cell in cells] == [False] * 4 + [True] * 3
        assert all(float(cell.rstrip("*")) < 0 for cell in cells[4:])
    assert lines[6:] == ["", "(*) violations found: the differential pushed a cone ray outside."]
