"""The README's code blocks: the Python tour runs as written, and every
`spdorders` line of the shell blocks parses with the CLI's own parser."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from spdorders import cli

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
COMMANDS = [line for lang, body in BLOCKS if lang == "sh" for line in body.splitlines() if line.startswith("spdorders ")]


def test_python_block_runs_within_its_stated_drift(tmp_path):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    bound = float(re.search(r"drift below (\S+)", code).group(1))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code + "\nprint(traj.spectrum_drift())"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert 0.0 <= float(done.stdout) < bound


@pytest.mark.parametrize("line", COMMANDS)
def test_shell_line_parses(line):
    words = shlex.split(line, comments=True)
    assert cli.build_parser().parse_args(words[1:]).command == words[1]


def test_shell_lines_cover_every_subcommand():
    usage = cli.build_parser().format_usage()
    subcommands = re.search(r"\{(.*?)\}", usage).group(1).split(",")
    assert sorted({shlex.split(line)[1] for line in COMMANDS}) == sorted(subcommands)
