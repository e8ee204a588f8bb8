"""Run a command as a forked child and print its exit status, its own peak
RSS and this process's peak RSS, in kilobytes, on one line.

    python3 -I -S .github/scripts/peak_rss.py COMMAND [ARG ...]

A child that ``subprocess`` starts shares its parent's memory until it
execs (vfork), and on Linux the child's ``ru_maxrss`` then keeps the
parent's peak: a child lighter than its launcher reads the launcher's
peak.  A child of ``os.fork`` starts from a copy of this process's own
memory, a couple of megabytes under ``-I -S``, where it imports only
``os``, ``resource`` and ``sys``.  Start it from a shell, which forks it
the same way.  The command's standard output is discarded.  Linux only:
elsewhere ``ru_maxrss`` is not in kilobytes.
"""

import os
import resource
import sys

pid = os.fork()
if pid == 0:
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.execvp(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
