"""Run the command line in process, as the console script would."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest

from interdec.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        """Both streams, as a terminal shows them when one of them is empty."""
        return self.stdout + self.stderr


def invoke(argv):
    """Run `interdec ARGV` with stdout and stderr captured; main always
    ends in SystemExit, and the exit code is its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as ended:
        main(args=list(argv))
    return Result(ended.value.code, out.getvalue(), err.getvalue())
