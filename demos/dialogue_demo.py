"""A tour of call/cc in both computation flavours.

The two dialogue programs log their progress through a handler and its
captured continuation.  In the quantifier flavour, invoking the captured
continuation abandons the rest of the handler; in the selection flavour the
handler gets the continuation's answer back and keeps going, producing a
coroutine-like back-and-forth.
"""
from __future__ import annotations

from selcc import demo_bar, demo_foo


def show(title: str, log: list[str], result: int) -> None:
    print(f"== {title} ==")
    for line in log:
        print(f"  {line}")
    print(f"  result: {result}")
    print()


def double(n: int) -> int:
    return n * 2


def main() -> None:
    log, result = demo_foo()
    show("quantifier flavour: the jump never comes back", log, result)

    log, result = demo_bar()
    show("selection flavour: the handler resumes after the jump", log, result)

    # The same programs run against a doubling outer continuation.
    log, result = demo_bar(double)
    show("selection flavour, doubling continuation", log, result)

    log, result = demo_foo(double)
    show("quantifier flavour, doubling continuation", log, result)


if __name__ == "__main__":
    main()
