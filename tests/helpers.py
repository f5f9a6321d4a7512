"""Helpers shared by several test modules; pytest collects no tests here."""
from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from selcc import SelectionComputation, sel_bind, sel_map, sel_unit

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, so a child Python process imports the same ``selcc``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return env


def modules_loaded_by(code: str) -> list[str]:
    """The ``selcc`` submodules, and ``random`` if it is among them, that a
    fresh interpreter loads while it runs ``code``, sorted.  The child runs
    without ``site``, which on some installs imports ``random`` at start-up."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new if m.startswith('selcc.') or m == 'random'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def source_mutant(function, *edits: tuple[str, str]):
    """``function`` with each ``(old, new)`` edit made to its source, compiled
    in a copy of its module's namespace."""
    module = sys.modules[function.__module__]
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert old in source
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[function.__name__]


def leaves_out_calls(observed, reference) -> bool:
    """Whether an observed product run, ``(answer, continuation calls,
    chooser runs)``, has the answer and chooser runs of ``reference`` and
    its calls with some left out, in order."""
    (answer, calls, runs), (ref_answer, ref_calls, ref_runs) = observed, reference
    rest = iter(ref_calls)
    in_order = all(any(call == other for other in rest) for call in calls)
    return answer == ref_answer and runs == ref_runs and in_order


def paper_sel_bind(eps, f):
    """The paper's selection bind as written, a reference for ``sel_bind``:
    ``eps`` scores ``x`` by binding ``f(x)``'s choice under ``k`` into
    ``k``, and the chosen ``x`` runs through ``f`` a second time, with no
    memo."""
    bind = eps.effect.bind

    def chooser(k):
        return bind(eps.chooser(lambda x: bind(f(x).chooser(k), k)), lambda x: f(x).chooser(k))

    return SelectionComputation(chooser, eps.effect)


def fold_sequence(comps, bind=sel_bind):
    """The iterated product as the right fold of binary products, a
    reference for ``sel_sequence``: each step binds its head with ``bind``
    (``sel_bind``'s memo, or :func:`paper_sel_bind`) and maps the rest of
    the product onto it.  No computations fold to the unit at ``()`` over
    identity, as in ``sel_sequence``."""
    result = sel_unit((), comps[0].effect if comps else None)
    for comp in reversed(comps):
        result = bind(comp, lambda x, rest=result: sel_map(rest, lambda xs: (x,) + xs))
    return result


def unshared_callcc_term(monad, handler, eff):
    """The paper's term as written, ``λk1. handler(λx. λk2. k1(x))(k1)``:
    every run of a reified computation runs ``k1(x)`` again."""

    def run(k1):
        def reified(x):
            return monad.computation(lambda k2: k1(x), eff)

        return monad.run(handler(reified), k1)

    return monad.computation(run, eff)
