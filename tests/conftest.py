"""Shared fixtures: a thread-backed stand-in for the falsifier's worker processes."""

import multiprocessing
import os
import threading
from multiprocessing.connection import Connection

import pytest


class ThreadProcess(threading.Thread):
    """A multiprocessing.Process whose target runs in a thread here, so it sees every monkeypatch.

    A started process keeps its own end of the pipe it is given after the
    caller closes the caller's copy, so the stand-in hands its target a
    duplicate and closes it when the target returns, as a process exit
    would.  A thread cannot be killed: kill only records that it was
    called, in killed, and join waits for the target to return.
    """

    def __init__(self, target, args, daemon):
        conn, self.chunk, self.tasks = args
        self._conn = Connection(os.dup(conn.fileno()), readable=False)
        super().__init__(target=target, args=(self._conn, self.chunk, self.tasks), daemon=daemon)
        self.exitcode = None
        self.killed = False

    def run(self):
        try:
            super().run()
        finally:
            self._conn.close()
        self.exitcode = 0

    def kill(self):
        self.killed = True


@pytest.fixture
def thread_processes(monkeypatch):
    """Start the falsifier's workers as ThreadProcess; the list of those started."""
    started = []

    class Recorded(ThreadProcess):
        def start(self):
            super().start()
            started.append(self)

    monkeypatch.setattr(multiprocessing, "Process", Recorded)
    return started
