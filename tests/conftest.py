"""Session set-up shared by every test module."""

from speclab import matlin


def pytest_configure(config):
    # Hold the heap once, as cli.main and the pool initializer do.  The
    # acceptance criteria run experiments in this process; without it glibc
    # hands each cell's freed temporaries back to the OS and the next cell
    # faults them in again.
    matlin.hold_heap()
