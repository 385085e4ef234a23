"""Runs the zclrp CLI in this process with its output captured."""

import contextlib
import io
from dataclasses import dataclass

from zclrp.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as a terminal shows them
    exception: BaseException | None  # None on exit code 0


class _Tee(io.StringIO):
    """A captured stream that also copies each write to a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def invoke(*args: str) -> Result:
    """Run main(list(args)); an exception other than SystemExit is exit 1."""
    output = io.StringIO()
    out, err = _Tee(output), _Tee(output)
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            if isinstance(exc.code, int):
                exit_code = exc.code
            elif exc.code is not None:  # a message instead of a code
                exit_code = 1
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, out.getvalue(), err.getvalue(),
                  output.getvalue(), exception)
