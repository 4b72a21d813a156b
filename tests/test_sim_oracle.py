"""A max-plus recurrence oracle for the deterministic simulator.

Deterministic FIFO stages with identical servers keep the pieces in order, so
their event times follow recursions over the piece index k (Dallery &
Gershwin, "Manufacturing flow line systems: a review of models and analytical
results", Queueing Systems 12, 1992; Baccelli, Cohen, Olsder & Quadrat,
Synchronization and Linearity, 1992). For stages i = 0..n-1 with s_i servers
of raw time t_i, transfer delay d, queue capacity c (no cap: c = infinity)
and the CONWIP gate limit L = min(s_1, c) + s_0 - 1:

    release      R(k)   = S(k,0) = max(F(k-s_0,0), S(k-L,1))
    start        S(k,i) = max(A(k,i), F(k-s_i,i))           for i >= 1
    completion   C(k,i) = S(k,i) + t_i
    server free  F(k,i) = max(C(k,i), S(k-c,i+1)),          F(k,n-1) = C(k,n-1)
    arrival      A(k,i) = F(k,i-1) + d

with every time of a piece k <= 0 read as 0. The gate term holds because the
front WIP (pieces released and not yet started at the second stage) must be
below L when piece k is released; the blocking term because a finished piece
leaves only when fewer than c pieces are in transit to or queued at the next
stage. On a one-stage line the gate is open and R(k) = F(k-s_0,0).

Every move an event enables happens at the instant of that event, so there
are no tie offsets: the simulator processes the events of one instant in
heap order, but each one that frees a server, opens a queue slot or opens
the gate dispatches again at that same instant. A sample at time u sees every
event at u, and a completion at the horizon still counts.
"""
from bisect import bisect_right
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import hangerline as hl
from hangerline import SimConfig

from .test_model import make_plan


def recurrence(plan, allocation, config):
    """The SimResult the recursions above give for a deterministic run."""
    n = len(plan.tasks)
    s = [allocation.count(t.id) for t in plan.tasks]
    t = [task.cycle_time for task in plan.tasks]
    cap, d = config.queue_capacity, config.transfer_delay_s
    horizon, warmup = config.horizon_s, config.warmup_s
    gate = None if n == 1 else (s[1] if cap is None else min(s[1], cap)) + s[0] - 1

    # A, S, C, F[i][k - 1] for piece k; a piece released after the horizon
    # (and every later one) cannot touch a figure of the run
    A, S, C, F = ([[] for _ in range(n)] for _ in range(4))

    def at(times, k):
        return times[k - 1] if k >= 1 else Fraction(0)

    k = 0
    while True:
        k += 1
        release = at(F[0], k - s[0])
        if gate is not None:
            release = max(release, at(S[1], k - gate))
        if release > horizon:
            break
        for i in range(n):
            arrive = release if i == 0 else F[i - 1][k - 1] + d
            start = arrive if i == 0 else max(arrive, at(F[i], k - s[i]))
            complete = free = start + t[i]
            if cap is not None and i < n - 1:
                # piece k - c is an earlier piece, so its next start is known
                free = max(free, at(S[i + 1], k - cap))
            A[i].append(arrive)
            S[i].append(start)
            C[i].append(complete)
            F[i].append(free)

    def count(times, u):
        return bisect_right(times, u)

    done = C[n - 1]
    completed_total = count(done, horizon)
    completed = completed_total - count(done, warmup)
    window = horizon - warmup
    utilization = {
        task.id: sum(
            max(Fraction(0), min(c, horizon) - max(b, warmup)) for b, c in zip(S[i], C[i])
        ) / (s[i] * window)
        for i, task in enumerate(plan.tasks)
    }

    samples = []
    u = Fraction(0)
    while u <= horizon:
        released, finished = count(S[0], u), count(done, u)
        samples.append(
            hl.WipSample(
                time=u,
                queue_lengths={
                    plan.tasks[i].id: count(A[i], u) - count(S[i], u) for i in range(1, n)
                },
                released=released,
                completed=finished,
                in_flight=released - finished,
            )
        )
        u += config.sample_interval_s

    released = len(S[0])
    return hl.SimResult(
        plan=plan,
        allocation=allocation,
        config=config,
        completed=completed,
        completed_total=completed_total,
        released=released,
        throughput=Fraction(completed) * 3600 / window,
        utilization=utilization,
        conservation=(released, completed_total, released - completed_total),
        wip_timeseries=tuple(samples),
    )


def _run(times, counts, **config):
    plan = make_plan(times, sum(counts))
    allocation = hl.Allocation({task.id: c for task, c in zip(plan.tasks, counts)})
    return plan, allocation, SimConfig(**config)


@st.composite
def deterministic_lines(draw):
    """Up to 8 tasks with 1-3 stations each (so the allocations are mostly
    unbalanced and the first stage is often split), queue caps, transfer
    delays and times whose denominators share no unit."""
    n = draw(st.integers(1, 8))
    times = [
        Fraction(draw(st.integers(5 * den, 60 * den)), den)
        for den in draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    ]
    horizon = Fraction(draw(st.integers(60, 3600 * 3)), 3)
    return _run(
        times,
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        horizon_s=horizon,
        warmup_s=horizon * Fraction(draw(st.integers(0, 9)), 10),
        queue_capacity=draw(st.none() | st.integers(1, 3)),
        transfer_delay_s=Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4))),
        sample_interval_s=Fraction(draw(st.integers(5, 600)), draw(st.integers(1, 6))),
    )


@settings(max_examples=60, deadline=None)
@given(deterministic_lines())
# a split first stage behind a one-slot queue, with a transfer delay
@example(_run([20, 30, 15], [3, 1, 2], horizon_s=1800, warmup_s=300, queue_capacity=1,
              transfer_delay_s=Fraction(3, 2)))
# an unbalanced line whose bottleneck blocks a two-station feeder
@example(_run([12, 50, 7, 25], [2, 1, 1, 3], horizon_s=3600, queue_capacity=2,
              sample_interval_s=Fraction(7, 3)))
# ties everywhere: equal integer times, a cap of one, the horizon on an event
@example(_run([10, 10, 10], [1, 1, 1], horizon_s=600, warmup_s=100, queue_capacity=1,
              sample_interval_s=10))
def test_deterministic_runs_follow_the_max_plus_recurrence(line):
    plan, allocation, config = line
    assert hl.simulate(plan, allocation, config) == recurrence(plan, allocation, config)
