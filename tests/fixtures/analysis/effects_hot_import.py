"""Seeded hot-path-perf violation: golden fixture for the effects
pass.  Analyzed as ``repro.apps.fixture_hot_import`` — the marked
method runs an import statement on every call; the unmarked twin stays
silent."""


class Server:
    def __init__(self, handler):
        self.handler = handler

    # repro: hot
    def serve(self, keys):
        from repro.runtime.rate_limit import ProgressKind
        served = 0
        for key in keys:
            served += self.handler(key, ProgressKind.IO)
        return served

    def serve_cold(self, keys):
        # Identical body, no hot marker: the checker must stay quiet.
        from repro.runtime.rate_limit import ProgressKind
        served = 0
        for key in keys:
            served += self.handler(key, ProgressKind.IO)
        return served
