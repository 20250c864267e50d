"""Seeded LK001 fixture: inverted lock acquisition order.

Acquiring the serve service lock while holding the innermost
compile-cache ``_LOCK`` — and worse, a session run lock while holding the
service lock — is the deadlock shape the lock-rank rule exists to catch.
"""

import threading

_LOCK = threading.RLock()


class BadService:
    def __init__(self):
        self._service_lock = threading.Condition()
        self._run_lock = threading.RLock()

    def inverted(self):
        with _LOCK:  # rank 30 (innermost) taken first ...
            with self._service_lock:  # LK001: rank 10 under rank 30
                pass

    def doubly_inverted(self):
        with self._service_lock:  # rank 10 first ...
            with self._run_lock:  # LK001: rank 0 under rank 10
                pass

    def fine(self):
        # Rank-ascending nesting is the sanctioned order.
        with self._run_lock:
            with self._service_lock:
                with _LOCK:
                    pass

    def nested_function_resets(self):
        with _LOCK:
            def callback():
                # Defined, not called, under the lock: no violation.
                with self._service_lock:
                    pass

            return callback
