"""Independent work spread over the usable CPUs with `os.fork`.

`fork_map` is the only entry point. Results come back in item order, so what
a caller computes never depends on how many CPUs ran it.
"""

from __future__ import annotations

import os
import pickle

_in_child = False  # set in a forked worker, whose own `fork_map` calls run serially


def fork_map(fn, items) -> list:
    """`[fn(x) for x in items]`, the items dealt over the usable CPUs.

    With n = min(len(items), usable CPUs) workers, worker k takes
    `items[k::n]`: worker 0 is the caller and the others are forked
    children, each sending its pickled results (or the exception its share
    raised) back through a pipe. An exception from a child's share is
    raised here with its type and message; a child that ends without a
    result raises RuntimeError naming its exit status. Every child is
    reaped on every path, and killed first if the caller's own share
    raises. Inside a child, and with one usable CPU, this runs serially.
    """
    items = list(items)
    n = 1 if _in_child else min(len(items), len(os.sched_getaffinity(0)))
    if n <= 1:
        return [fn(x) for x in items]
    children: list[tuple[int, object]] = []  # (pid, read end) of each unreaped child
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _serve(fn, items[k::n], r, w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        shares = [[fn(x) for x in items[::n]]]
        while children:
            pid, reader = children[0]
            # Read to EOF before waiting: a share can outgrow the pipe buffer.
            data = reader.read()
            reader.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status != 0:  # exit status 0 only after a whole outcome was written
                raise RuntimeError(f"fork_map worker ended without a result (exit status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            shares.append(value)
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, 9)  # SIGKILL, without the `signal` module's import-time enums
            os.waitpid(pid, 0)
    out = [None] * len(items)
    for k, share in enumerate(shares):
        out[k::n] = share
    return out


def _serve(fn, share: list, r: int, w: int) -> None:
    """A forked worker: run `share`, write the pickled outcome to `w`, exit.

    It never returns, so the child never runs on in the caller's code.
    """
    global _in_child
    _in_child = True
    code = 1
    try:
        os.close(r)
        try:
            outcome = (True, [fn(x) for x in share])
        except Exception as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            if not outcome[0]:
                pickle.loads(data)  # an exception must also rebuild in the caller
        except Exception as exc:
            error = RuntimeError(f"fork_map worker could not pickle its outcome: {exc!r}")
            data = pickle.dumps((False, error))
        with open(w, "wb") as f:
            f.write(data)
        code = 0
    finally:
        os._exit(code)
