"""The post-drain settle window must not hide simulator bugs.

``execute_prepared`` keeps the clock running for *settle* seconds after
the campaign so workers and glide-ins exit cleanly.  A numeric ``until``
is itself a queued event, so the queue can never drain before it: any
``RuntimeError`` escaping ``env.run`` there comes from a simulated
process and has to reach the caller.
"""

import pytest

from repro.scenarios import execute_prepared, prepare_quickstart


def test_runtime_error_in_settle_window_propagates():
    prepared = prepare_quickstart(events=4_000, workers=2, seed=3)
    env = prepared.env

    def buggy(env):
        while prepared.run.finished_at is None:
            yield env.timeout(60.0)
        # At most 60 s after the campaign: well inside the settle window.
        raise RuntimeError("planted bug after the campaign")

    env.process(buggy(env), name="buggy")
    with pytest.raises(RuntimeError, match="planted bug after the campaign"):
        execute_prepared(prepared, settle=300.0)
    assert prepared.run.finished_at is not None
