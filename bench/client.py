"""One request, run either as a real `dessinry` process or in-process.

`spawn` times a request from process creation to exit, with nothing else
running: the caller is a closed loop with one client.  `call_inprocess`
runs the same request through dessinry.cli.main in this interpreter, for
the traced run.

The child runs what the installed `dessinry` console script runs, and on
the way out writes its VmHWM (peak resident set) to `.vmhwm` in its
working directory.  The rusage of a reaped child is no use here: Linux
carries the spawning process's peak over exec into it.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback

ENTRY = """import sys
try:
    from dessinry.cli import main
    code = main()
finally:
    with open("/proc/self/status") as src, open(".vmhwm", "w") as dst:
        dst.write("".join(line for line in src if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _read_vmhwm(run_dir):
    """Peak RSS in kB written by the last child, or 0 if it wrote none."""
    path = os.path.join(run_dir, ".vmhwm")
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        os.remove(path)
    except FileNotFoundError:
        return 0
    return int(text.split()[1])


class Outcome:
    __slots__ = ("code", "out", "err", "seconds", "rss_kb")

    def __init__(self, code, out, err, seconds, rss_kb=0):
        self.code = code
        self.out = out
        self.err = err
        self.seconds = seconds
        self.rss_kb = rss_kb

    @property
    def sha256(self):
        return hashlib.sha256(self.out.encode("utf-8")).hexdigest()


def write_files(run_dir, request):
    for name, text in request["files"].items():
        with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def child_env(src_dir, extra=None):
    """The caller's environment, with src/ first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def spawn(src_dir, run_dir, request, timeout=120.0):
    """Run one request as a fresh `dessinry` process and wait for it."""
    env = child_env(src_dir, request["env"])
    stdin_path = os.path.join(run_dir, ".stdin")
    if request["stdin"] is not None:
        with open(stdin_path, "w", encoding="utf-8") as fh:
            fh.write(request["stdin"])
    out_path, err_path = os.path.join(run_dir, ".stdout"), os.path.join(run_dir, ".stderr")
    with contextlib.ExitStack() as stack:
        stdin = stack.enter_context(open(stdin_path if request["stdin"] is not None else os.devnull, "rb"))
        out = stack.enter_context(open(out_path, "w+b"))
        err = stack.enter_context(open(err_path, "w+b"))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY] + request["argv"], cwd=run_dir, env=env, stdin=stdin, stdout=out, stderr=err
        )
        # Popen.wait(timeout) polls with sleeps of up to 50 ms, which rounds
        # every latency up to 50 ms steps; a watchdog keeps the wait blocking.
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        text_out = out.read().decode("utf-8", "replace")
        text_err = err.read().decode("utf-8", "replace")
    return Outcome(proc.returncode, text_out, text_err, seconds, _read_vmhwm(run_dir))


def spawn_bare(src_dir, run_dir):
    """Wall time of `python -c pass`, started the way `spawn` starts a request.

    The host's speed swings by about half in stretches of seconds to
    minutes; a bare start next to each request measures the speed that
    request saw."""
    env = child_env(src_dir)
    with open(os.devnull, "rb") as stdin, open(os.devnull, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "pass"], cwd=run_dir, env=env,
                                stdin=stdin, stdout=sink, stderr=sink)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
        return time.perf_counter() - start


def spawn_python(args, env, timeout=60.0):
    """Wall time of a bare `python args...` run, and its stderr."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, env=env, capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - start, proc.stderr


@contextlib.contextmanager
def _environment(extra):
    saved = {k: os.environ.get(k) for k in extra}
    os.environ.update(extra)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def call_inprocess(cli, run_dir, request):
    """Run one request through cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(request["stdin"] or "")
    os.chdir(run_dir)
    start = time.perf_counter()
    try:
        with _environment(request["env"]), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(request["argv"]))
            except Exception:  # the CLI contract says this never happens; record it as a traceback
                traceback.print_exc(file=err)
                code = 1
    finally:
        seconds = time.perf_counter() - start
        os.chdir(cwd)
        sys.stdin = saved_stdin
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)
