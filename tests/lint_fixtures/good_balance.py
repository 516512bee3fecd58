"""ktaulint fixture: the real kernel instrumentation idioms, all balanced.

Mirrors the shapes used in repro.kernel: presence-guarded entry and exit
correlating on the same condition, try/finally closing on every path,
and nested LIFO spans inside a per-iteration loop.  Expected findings:
none.
"""


def guarded_pair(kernel, task, payload):
    data = task.ktau
    if data is not None:
        kernel.ktau.entry(data, kernel.point("sock_sendmsg"))
    try:
        result = payload()
    finally:
        if data is not None:
            kernel.ktau.exit(data, kernel.point("sock_sendmsg"))
    return result


def nested_lifo_in_loop(kernel, data, segments):
    total = 0
    for seg in segments:
        if data is None:
            continue
        kernel.ktau.entry(data, kernel.point("tcp_sendmsg"))
        kernel.ktau.entry(data, kernel.point("ip_queue_xmit"))
        kernel.ktau.exit(data, kernel.point("ip_queue_xmit"))
        kernel.ktau.exit(data, kernel.point("tcp_sendmsg"))
        total += seg
    return total


def closes_before_each_exit(kernel, data, fast):
    point = kernel.point("do_page_fault")
    kernel.ktau.entry(data, point)
    if fast:
        kernel.ktau.exit(data, point)
        return "fast"
    kernel.ktau.exit(data, point)
    return "slow"


def raises_inside_finally_protection(kernel, data, check):
    kernel.ktau.entry(data, kernel.point("sys_readv"))
    try:
        if not check:
            raise ValueError("bad input")
        return check
    finally:
        kernel.ktau.exit(data, kernel.point("sys_readv"))
