"""Work counts read from outside the library, used by the tests only."""

import inspect
import sys


def line_events(fn, text, run):
    """Line events at the lines of fn whose stripped source is text, counted
    while run() executes; fn may be a generator function."""
    lines, start = inspect.getsourcelines(fn)
    at = {start + i for i, line in enumerate(lines) if line.strip() == text}
    code, count = fn.__code__, 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno in at:
            count += 1
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(old)
    return count
