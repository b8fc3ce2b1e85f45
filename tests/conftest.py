"""One hypothesis profile for the whole suite: examples are derived from each
test's name, not drawn afresh, and no example database is written, so every
run of the suite tries the same inputs. A test's own @settings still set its
example count."""

from hypothesis import settings

settings.register_profile("enkpf", derandomize=True, deadline=None, database=None)
settings.load_profile("enkpf")
