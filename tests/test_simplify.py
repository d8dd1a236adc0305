import random
from collections import Counter
from fractions import Fraction

import pytest

from fieldsimp import fields, interp, oms
from fieldsimp import simplify as simplify_module
from fieldsimp.arith import inv, production_prime
from fieldsimp.cli import parse_problem_file
from fieldsimp.fields import MembershipContext
from fieldsimp.interp import FAIL
from fieldsimp.oms import (CoefficientReport, EomsEvaluator,
                           EvaluationBudgetExceeded, GeneratorSet)
from fieldsimp.poly import PrimeField, QQ, Ring
from fieldsimp.simplify import (SimplifyConfig, VerificationFailed,
                                _crt_pairs, _dedup_pool,
                                reconstruct_candidates, simplicity_key,
                                simplify)

from conftest import (ALL_FIXTURES, CHECK_PRIME_INDICES, CHECK_PRIMES,
                      fields_equal_2p, genset_of, load_fixture, parse_many,
                      simplify_fixture)


def rf(ring, text):
    return parse_many(ring, [text])[0]


# ----------------------------------------------------------------------
# simplicity order


def test_simplicity_degree_wins():
    ring = Ring(("x1", "x2"), QQ)
    assert simplicity_key(rf(ring, "x1")) < simplicity_key(rf(ring, "x1^2"))
    assert simplicity_key(rf(ring, "x1^2")) > simplicity_key(rf(ring, "x1"))


def test_simplicity_fourth_criterion():
    ring = Ring(("x1", "x2"), QQ)
    f, g = rf(ring, "x1 + x2"), rf(ring, "x1*x2")
    # x1 + x2 wins (the separating monomial x1*x2 sits in the second)
    assert simplicity_key(f) < simplicity_key(g)
    # same-degree tie decided by the largest separating monomial
    a, b = rf(ring, "x1^2 + x2^2"), rf(ring, "x1^2 + x1*x2")
    ka, kb = simplicity_key(a), simplicity_key(b)
    assert ka[:3] == kb[:3]
    assert ka < kb


def test_simplicity_reciprocal_rule():
    ring = Ring(("x1", "x2"), QQ)
    f, g = rf(ring, "1/x1"), rf(ring, "x1")
    kf, kg = simplicity_key(f), simplicity_key(g)
    assert kf[:5] == kg[:5]
    # only the text tiebreak separates them, so comparison is deterministic
    assert kf != kg
    assert simplicity_key(rf(ring, "1/x1")) == kf


def test_simplicity_term_count():
    ring = Ring(("x1", "x2"), QQ)
    assert simplicity_key(rf(ring, "x1^2")) < \
        simplicity_key(rf(ring, "x1^2 + x1 + 1"))


# ----------------------------------------------------------------------
# rational reconstruction of modular pools


def test_reconstruct_small_integers():
    ring = Ring(("x1", "x2"), QQ)
    p = CHECK_PRIMES[0]
    pairs = [
        ((((1, 0), 2), ((0, 0), p - 1)), (((0, 0), 1),)),
        ((((0, 1), 1),), (((1, 0), 1),)),
    ]
    got = reconstruct_candidates(pairs, ring, p)
    assert got == [rf(ring, "2*x1 - 1"), rf(ring, "x2/x1")]


def test_reconstruct_one_third():
    ring = Ring(("x1",), QQ)
    p = CHECK_PRIMES[0]
    third = inv(3, p)
    got = reconstruct_candidates([((((1,), third),), (((0,), 1),))], ring, p)
    assert got == [rf(ring, "1/3 * x1")]


def test_reconstruct_needs_more_primes():
    ring = Ring(("x1",), QQ)
    p = CHECK_PRIMES[0]
    # residue of a fraction far beyond the sqrt(p/2) lifting bound
    big = (10 ** 12) * inv(10 ** 11 + 7, p) % p
    got = reconstruct_candidates([((((1,), big),), (((0,), 1),))], ring, p)
    assert got is FAIL


def _harvest_report(p, value, mon=(1,)):
    """A one-coefficient harvest at p: `value` * x^mon over 1."""
    x_ring = Ring(("x",), PrimeField(p))
    num = x_ring.from_dict(
        {mon: value.numerator * inv(value.denominator, p) % p})
    entries = {(0, (0, 1)): ("ok", (num, x_ring.one()), (sum(mon), 0))}
    return CoefficientReport(entries, 0)


def test_crt_pairs_lift_over_two_primes():
    ring = Ring(("x",), QQ)
    value = Fraction(10 ** 12, 10 ** 11 + 7)
    reports = [_harvest_report(p, value) for p in CHECK_PRIMES]
    # one prime is too small for this coefficient, their product is not
    one = _crt_pairs(reports[:1])
    assert reconstruct_candidates(one, ring, CHECK_PRIMES[0]) \
        is FAIL
    pairs = _crt_pairs(reports)
    got = reconstruct_candidates(pairs, ring,
                                 CHECK_PRIMES[0] * CHECK_PRIMES[1])
    assert got == [rf(ring, "1000000000000/100000000007 * x")]


def test_crt_pairs_mismatch_needs_more_primes():
    value = Fraction(10 ** 12, 10 ** 11 + 7)
    p, q = CHECK_PRIMES
    moved = _harvest_report(q, value, mon=(2,))
    assert _crt_pairs([_harvest_report(p, value), moved]) \
        is FAIL
    high = CoefficientReport({(0, (0, 1)): ("high_degree", None)}, 0)
    assert _crt_pairs([_harvest_report(p, value), high]) is FAIL


THIRTY_DIGITS = "vars: x, y\n123456789012345678901234567890*x + y\nx*y\n"


def test_obscured_four_variable_set_verifies():
    # quotients of a^2 + b*c, 3*a*d - b^2 + 1 and c^2 + a*d whose exact
    # gcds swell under a pseudo-remainder sequence
    genset = load_fixture("obscured4")
    output, report = simplify(genset, SimplifyConfig(seed=0))
    assert report.verified is True
    assert fields_equal_2p(GeneratorSet(genset.ring, output), genset)


def test_one_evaluator_per_harvest_prime(monkeypatch):
    # the polynomial search replays the first harvest evaluator, so every
    # evaluator an attempt builds belongs to a harvest prime
    genset, _ = parse_problem_file(THIRTY_DIGITS)
    built = Counter()
    init = EomsEvaluator.__init__

    def counting_init(self, source, ring, *args):
        assert source is genset
        built[ring.field.p] += 1
        init(self, source, ring, *args)

    monkeypatch.setattr(EomsEvaluator, "__init__", counting_init)
    _output, report = simplify(genset, SimplifyConfig(seed=0))
    assert list(built) == report.primes[:4]
    assert set(built.values()) == {1}


def test_thirty_digit_coefficient_verifies_at_attempt_0():
    # each one-prime-short lift of the coefficient is a wrong fraction
    # within the bound; the member check refuses it and a harvest prime
    # joins, until the lift over four primes is a member
    genset, _ = parse_problem_file(THIRTY_DIGITS)
    output, report = simplify(genset, SimplifyConfig(seed=0))
    assert report.verified is True
    assert [g.render() for g in output] == [
        "x + 1/123456789012345678901234567890*y", "x*y"]
    assert report.primes == [production_prime(i)
                             for i in (0, 6, 7, 64, 2, 3)]


def test_prime_cap_names_every_attempt(monkeypatch):
    monkeypatch.setattr(simplify_module, "HARVEST_OFFSETS", (0, 6))
    genset, _ = parse_problem_file(THIRTY_DIGITS)
    cfg = SimplifyConfig()
    with pytest.raises(VerificationFailed) as info:
        simplify(genset, cfg)
    assert str(info.value).split("; ") == [
        "attempt %d: coefficients need more than 2 harvest primes at d=1"
        % restart for restart in range(simplify_module.MAX_RESTARTS + 1)]


def test_harvest_primes_clear_of_check_primes(monkeypatch):
    # the check and final-check indices are read off runs that lift heron
    # at their first harvest prime; 24 and 25 are perfbench's reference
    # indices, and the tests' own check primes are clear of all
    drawn = []
    monkeypatch.setattr(simplify_module, "production_prime",
                        lambda i: drawn.append(i) or production_prime(i))
    genset = load_fixture("heron")
    cfg = SimplifyConfig()
    checks, harvest = {24, 25}, set()
    for restart in range(simplify_module.MAX_RESTARTS + 1):
        del drawn[:]
        _output, report = simplify_module._run_once(genset, cfg, restart)
        assert report.verified is True and drawn[0] == 8 * restart
        checks.update(drawn[1:])
        harvest.update(8 * restart + k
                       for k in simplify_module.HARVEST_OFFSETS)
    assert len(checks) == 2 + 3 * (simplify_module.MAX_RESTARTS + 1)
    assert not harvest & checks
    assert not set(CHECK_PRIME_INDICES) & (harvest | checks)


def test_two_prime_lift_verifies():
    genset, _ = parse_problem_file(
        "vars: x, y\nx + 1000000000000/100000000007*y\nx*y\n")
    # delta 1: polynomial augmentation still lifts at one prime
    output, report = simplify(genset, SimplifyConfig(seed=0, delta=1))
    assert report.verified is True
    assert sorted(g.render() for g in output) == \
        sorted(g.render() for g in genset.generators)
    # the coefficient lifts only over the product of two harvest primes,
    # listed ahead of the two final-check primes; the one-prime lift is a
    # wrong fraction that fails the member check, so a second prime joins
    # and the first attempt verifies
    assert report.primes == [production_prime(i) for i in (0, 6, 2, 3)]


def test_sixteen_digit_coefficient_lifts_over_two_primes():
    # |num| * den is about 2^106: its one-prime lift is a wrong fraction
    # that fails the member check, and it lifts within the sqrt(m/2) bound
    # of the two-prime lift
    genset, _ = parse_problem_file(
        "vars: x, y\nx + 10000000000000000/10000000000000001*y\nx*y\n")
    output, report = simplify(genset, SimplifyConfig(seed=0, delta=1))
    assert report.verified is True
    assert sorted(g.render() for g in output) == \
        sorted(g.render() for g in genset.generators)
    assert report.primes == [production_prime(i) for i in (0, 6, 2, 3)]


def test_polynomial_member_lifts_within_the_bound():
    # x^2 + (5791/5801)^2*y^2 has a 25-bit numerator and denominator; a
    # polynomial member lifts at one prime up to sqrt(p/2) and is kept
    # once the membership check confirms it
    genset, _ = parse_problem_file("vars: x, y\nx + 5791/5801*y\nx*y\n")
    _output, report = simplify(genset, SimplifyConfig(seed=0, delta=2))
    assert report.verified is True
    assert ("x^2 + 33535681/33651601*y^2", "polynomial") in report.pool


def test_cap_round_reads_the_rest_of_the_pool():
    # the field has no generator of degree sum <= 64: the round at the cap
    # keeps the retained original, and the output verifies
    genset, _ = parse_problem_file("vars: x, y\nx^65535*y\n")
    output, report = simplify(genset, SimplifyConfig(seed=0))
    assert report.verified is True
    assert [g.render() for g in output] == ["x^65535*y"]
    assert report.rounds[-1]["d"] == simplify_module.MAX_HARVEST_DEGREE


def test_verification_failed_names_every_attempt(monkeypatch):
    # with no originals in the pool and only linear polynomial members,
    # the round at the cap cannot reach the input field
    monkeypatch.setattr(simplify_module, "MAX_HARVEST_DEGREE", 1)
    cfg = SimplifyConfig(retain_originals=False, delta=1)
    with pytest.raises(VerificationFailed) as info:
        simplify(load_fixture("seir34"), cfg)
    assert str(info.value).split("; ") == [
        "attempt %d: harvest reached the degree cap at d=1" % restart
        for restart in range(simplify_module.MAX_RESTARTS + 1)]


def test_no_regular_point_names_every_attempt(monkeypatch):
    monkeypatch.setattr(oms, "specialize_eoms", lambda *args: FAIL)
    cfg = SimplifyConfig()
    with pytest.raises(VerificationFailed) as info:
        simplify(load_fixture("example_sym"), cfg)
    reasons = str(info.value).split("; ")
    assert len(reasons) == simplify_module.MAX_RESTARTS + 1
    for restart, reason in enumerate(reasons):
        assert reason == "attempt %d: no regular specialization point mod %d" \
            % (restart, production_prime(8 * restart))


def test_no_membership_point_names_every_attempt(monkeypatch):
    monkeypatch.setattr(fields, "specialize_eoms", lambda *args: FAIL)
    cfg = SimplifyConfig()
    with pytest.raises(VerificationFailed) as info:
        simplify(load_fixture("example_sym"), cfg)
    assert str(info.value).split("; ") == [
        "attempt %d: no regular evaluation point mod %d"
        % (restart, production_prime(8 * restart + 1))
        for restart in range(simplify_module.MAX_RESTARTS + 1)]


def test_interpolation_failure_names_every_attempt(monkeypatch):
    monkeypatch.setattr(oms, "interpolate_rational", lambda *args: FAIL)
    cfg = SimplifyConfig()
    with pytest.raises(VerificationFailed) as info:
        simplify(load_fixture("example_sym"), cfg)
    assert str(info.value).split("; ") == [
        "attempt %d: coefficient interpolation failed at d=1" % restart
        for restart in range(simplify_module.MAX_RESTARTS + 1)]


def test_eval_cap_bounds_gb_evaluations(monkeypatch):
    # one entry per GB evaluation that ran: each learn and each replay, the
    # search's included; the search spends 34, so 40 runs out in the harvest
    spent = []
    for name in ("_learn", "gb"):
        def counting(self, *args, method=getattr(EomsEvaluator, name)):
            out = method(self, *args)
            spent.append(method.__name__)
            return out
        monkeypatch.setattr(EomsEvaluator, name, counting)
    with pytest.raises(EvaluationBudgetExceeded, match=r"at d=\d+$"):
        simplify(load_fixture("seir34"), SimplifyConfig(eval_cap=40))
    assert "_learn" in spent and len(spent) <= 40


def test_eval_cap_covers_second_prime_learn(monkeypatch):
    built = []
    init = EomsEvaluator.__init__

    def recording_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(EomsEvaluator, "__init__", recording_init)
    # nothing lifts, so the attempt adds every harvest prime at d=1
    monkeypatch.setattr(simplify_module, "reconstruct_candidates",
                        lambda *args: FAIL)
    monkeypatch.setattr(simplify_module, "MAX_RESTARTS", 0)
    genset = load_fixture("heron")
    with pytest.raises(VerificationFailed):
        simplify(genset, SimplifyConfig())
    assert len(built) == len(simplify_module.HARVEST_OFFSETS)
    cap = built[0].n_evals
    # a budget the first prime's harvest spends exactly refuses the second
    # prime's learn before it runs
    del built[:]
    with pytest.raises(EvaluationBudgetExceeded, match="at d=1$"):
        simplify(genset, SimplifyConfig(eval_cap=cap))
    assert len(built) == 2 and built[0].n_evals == cap
    assert built[1].n_evals == 0


def test_eval_cap_counts_every_learn_attempt(monkeypatch):
    # a learn whose check fails spent one GB evaluation, and it ends the
    # attempt: nothing is redrawn, so a budget of 1 is never reached
    built, failed = [], []
    init, verify = EomsEvaluator.__init__, oms.gb_verify

    def recording_init(self, *args):
        built.append(self)
        init(self, *args)

    def failing_once(*args):
        if failed:
            return verify(*args)
        failed.append(args)
        return FAIL

    monkeypatch.setattr(EomsEvaluator, "__init__", recording_init)
    monkeypatch.setattr(oms, "gb_verify", failing_once)
    monkeypatch.setattr(simplify_module, "MAX_RESTARTS", 0)
    with pytest.raises(VerificationFailed,
                       match=r"^attempt 0: no regular specialization point "
                             r"mod %d$" % production_prime(0)):
        simplify(load_fixture("heron"), SimplifyConfig(eval_cap=1))
    assert len(failed) == 1 and len(built) == 1
    assert built[0].n_evals == 1


def test_a_lost_harvest_sample_ends_its_attempt(monkeypatch):
    # the learn and the search replay through gb(), not eval(), so the
    # first eval() of attempt 0 is its harvest's first sample; losing it
    # ends the attempt, and the restart at a fresh block of primes is the
    # one retry
    evaluate, calls = EomsEvaluator.eval, []

    def first_lost(self, point):
        calls.append(point)
        return FAIL if len(calls) == 1 else evaluate(self, point)

    monkeypatch.setattr(EomsEvaluator, "eval", first_lost)
    monkeypatch.setattr(simplify_module, "MAX_RESTARTS", 0)
    with pytest.raises(VerificationFailed,
                       match="^attempt 0: coefficient interpolation failed "
                             "at d=1$"):
        simplify(load_fixture("heron"))
    monkeypatch.undo()
    monkeypatch.setattr(EomsEvaluator, "eval", first_lost)
    del calls[:]
    _, report = simplify(load_fixture("heron"))
    assert report.verified and report.primes[0] == production_prime(8)


def test_a_lost_membership_sample_ends_its_attempt(monkeypatch):
    # the first membership query of attempt 0 sees a pole at its context's
    # point (the context reads every monomial as 0 there, so q(b) = 0): the
    # context draws no second point, the attempt ends, and the restart at a
    # fresh block of primes is the one retry
    values, calls = fields.values_at, []

    def first_lost(polys, powers, p):
        calls[:] = calls or [powers]     # the first query's power tables
        lost = powers is calls[0]
        return [0] * len(polys) if lost else values(polys, powers, p)

    monkeypatch.setattr(fields, "values_at", first_lost)
    monkeypatch.setattr(simplify_module, "MAX_RESTARTS", 0)
    with pytest.raises(VerificationFailed,
                       match="^attempt 0: candidate has a pole at the "
                             "membership point mod %d$" % production_prime(1)):
        simplify(load_fixture("heron"))
    monkeypatch.undo()
    monkeypatch.setattr(fields, "values_at", first_lost)
    del calls[:]
    _, report = simplify(load_fixture("heron"))
    assert report.verified and report.primes[0] == production_prime(8)


def test_polynomial_search_replays_first_harvest_evaluator(monkeypatch):
    # the search runs on the input before the harvest and replays the
    # trace of the first harvest prime's evaluator instead of learning one
    built, searched = [], []
    init = EomsEvaluator.__init__
    search = simplify_module.polynomial_generators

    def recording_init(self, *args):
        built.append(self)
        init(self, *args)

    def recording_search(genset, delta, field, rng, evaluator, **kwargs):
        searched.append((genset, evaluator, evaluator.values.copy()))
        return search(genset, delta, field, rng, evaluator, **kwargs)

    monkeypatch.setattr(EomsEvaluator, "__init__", recording_init)
    monkeypatch.setattr(simplify_module, "polynomial_generators",
                        recording_search)
    genset = load_fixture("heron")
    _output, report = simplify(genset, SimplifyConfig(seed=0))
    assert report.verified is True
    [(source, evaluator, harvested)] = searched
    assert source is genset and evaluator is built[0] and harvested == {}
    assert len(built) == 1


def test_members_checked_once_per_attempt(monkeypatch):
    # a coefficient found in one round is in every later round's report,
    # and a polynomial member may equal a coefficient: each distinct entry
    # is checked against the input field once, at the attempt's check prime
    genset = load_fixture("seir34")
    checked = []
    contains = fields.MembershipContext.contains

    def recording_contains(self, candidate):
        if self.genset is genset and self.field.p == production_prime(1):
            checked.append(candidate)
        return contains(self, candidate)

    monkeypatch.setattr(fields.MembershipContext, "contains",
                        recording_contains)
    _output, report = simplify(genset, SimplifyConfig(seed=0))
    assert [r["d"] for r in report.rounds] == [1, 2, 4]
    assert checked and len(checked) == len(set(checked))
    pool = {expr for expr, tag in report.pool if tag != "original"}
    assert {c.render() for c in checked} >= pool


def test_search_replays_count_against_eval_cap(monkeypatch):
    spent = []
    search = simplify_module.polynomial_generators

    def recording_search(genset, delta, field, rng, evaluator, **kwargs):
        basis = search(genset, delta, field, rng, evaluator, **kwargs)
        spent.append((evaluator, evaluator.n_evals))
        return basis

    monkeypatch.setattr(simplify_module, "polynomial_generators",
                        recording_search)
    genset = load_fixture("seir34")
    _output, report = simplify(genset, SimplifyConfig(seed=0))
    # the learn and the search's replays count in the evaluator, and in no
    # round's n_evals
    [(evaluator, searched)] = spent
    assert searched > 1
    assert sum(r["n_evals"] for r in report.rounds) \
        == evaluator.n_evals - searched
    # a budget the learn and the search spend exactly leaves no harvest
    # evaluation
    del spent[:]
    monkeypatch.setattr(simplify_module, "MAX_RESTARTS", 0)
    with pytest.raises(EvaluationBudgetExceeded, match="at d=1$"):
        simplify(genset, SimplifyConfig(eval_cap=searched))
    [(evaluator, capped)] = spent
    assert capped == evaluator.n_evals == searched
    assert evaluator.values == {}


def test_search_stops_at_eval_cap(monkeypatch):
    # seir34's search replays 33 times after the learn; with a budget of 5
    # it stops before the replay that would spend a sixth evaluation
    evaluators = []
    search = simplify_module.polynomial_generators

    def recording_search(genset, delta, field, rng, evaluator, **kwargs):
        evaluators.append(evaluator)
        return search(genset, delta, field, rng, evaluator, **kwargs)

    monkeypatch.setattr(simplify_module, "polynomial_generators",
                        recording_search)
    monkeypatch.setattr(simplify_module, "MAX_RESTARTS", 0)
    with pytest.raises(EvaluationBudgetExceeded, match="polynomial search"):
        simplify(load_fixture("seir34"), SimplifyConfig(eval_cap=5))
    [evaluator] = evaluators
    assert evaluator.n_evals == 5


def test_bilirubin_without_originals_stops_at_d4():
    # the coefficients of degree sum at most 4 and the polynomial members
    # already generate the field, so the harvest stops before d=8
    genset = load_fixture("bilirubin")
    output, report = simplify(genset, SimplifyConfig(
        seed=0, retain_originals=False))
    assert report.verified is True
    assert [r["d"] for r in report.rounds] == [1, 2, 4]
    assert "original" not in {tag for _, tag in report.pool}
    assert [g.render() for g in output] == [
        "k01", "k21 + k31 + k41", "k12 + k13 + k14",
        "k21*k31 + k21*k41 + k31*k41", "k12*k21 + k13*k31 + k14*k41",
        "k12*k13 + k12*k14 + k13*k14", "k21*k31*k41", "k12*k13*k14"]


def test_dedup_pool_normalizes_and_keeps_first_tag():
    ring = Ring(("x", "y"), QQ)
    entries = [(rf(ring, text), tag) for text, tag in (
        ("2*x + 2*y", "first"), ("3", "constant"), ("x + y", "second"),
        ("-x/3 - y/3", "third"), ("4*x/y", "ratio"), ("x/y", "ratio again"))]
    assert _dedup_pool(entries) == [(rf(ring, "x + y"), "first"),
                                    (rf(ring, "x/y"), "ratio")]


def test_bad_prime_reason_names_the_prime(monkeypatch):
    monkeypatch.setattr(simplify_module, "MAX_RESTARTS", 0)
    genset, _ = parse_problem_file(
        "vars: x, y\nx/(4611686018427387847*y+4611686018427387847)\nx*y\n")
    with pytest.raises(VerificationFailed) as info:
        simplify(genset, SimplifyConfig())
    assert str(info.value) == (
        "attempt 0: prime %d divides the denominator of 1/%d"
        % (production_prime(0), production_prime(0)))


def test_power_sums_harvest_shares_points():
    output, report = simplify(load_fixture("power_sums"), SimplifyConfig(seed=0))
    assert report.verified is True
    assert sum(r["n_evals"] for r in report.rounds) < 1000


def uroots_per_attempt(monkeypatch, name):
    """The report of simplify() at seed 0 and, per attempt, the Prony
    polynomials whose roots were found."""
    attempts = []
    run_once = simplify_module._run_once
    uroots = interp._uroots

    def recording_run_once(*args):
        attempts.append([])
        return run_once(*args)

    def recording_uroots(a, p):
        attempts[-1].append(tuple(a))
        return uroots(a, p)

    monkeypatch.setattr(simplify_module, "_run_once", recording_run_once)
    monkeypatch.setattr(interp, "_uroots", recording_uroots)
    output, report = simplify(load_fixture(name), SimplifyConfig(seed=0))
    assert report.verified is True
    assert attempts and all(attempts)
    return report, attempts


def test_power_sums_harvest_solves_each_polynomial_once(monkeypatch):
    # every key of power_sums is a polynomial, read off one shared sequence,
    # and an attempt finds the roots of a Prony polynomial once over all
    # of its rounds
    report, attempts = uroots_per_attempt(monkeypatch, "power_sums")
    assert sum(r["n_evals"] for r in report.rounds) <= 47
    for polys in attempts:
        assert len(polys) == len(set(polys))


def test_rational_keys_solve_each_polynomial_once_per_attempt(monkeypatch):
    # seir34 has rational keys; a round reads the rows of the rounds
    # before it, so no Prony polynomial is solved again
    report, attempts = uroots_per_attempt(monkeypatch, "seir34")
    assert len(report.rounds) > 1
    for polys in attempts:
        assert len(polys) == len(set(polys))


# ----------------------------------------------------------------------
# pipeline properties on fixtures


def test_config_validation():
    for bad in (SimplifyConfig(delta=0), SimplifyConfig(eval_cap=0)):
        try:
            bad.validate()
            assert False
        except ValueError:
            pass
    SimplifyConfig().validate()


def test_search_size_bound_accepts_every_fixture_up_to_delta_4():
    for name in ALL_FIXTURES + ("obscured4",):
        arity = load_fixture(name).ring.arity
        for delta in range(1, 5):
            SimplifyConfig(delta=delta).validate(arity)
    # seir34's seven variables take 1716 candidates at delta 6, 3432 at 7
    seir34 = load_fixture("seir34")
    SimplifyConfig(delta=6).validate(seir34.ring.arity)
    with pytest.raises(ValueError, match="^delta 7 gives 3432 candidate "
                                         "monomials, over the bound 2000$"):
        simplify(seir34, SimplifyConfig(delta=7))


def test_power_sums_retains_original_power_sums():
    genset, runs = simplify_fixture("power_sums")
    output, report, _ = runs[0]
    rendered = sorted(g.render() for g in output)
    expected = parse_many(genset.ring, [
        "x + y + z + u + v",
        "x^2 + y^2 + z^2 + u^2 + v^2",
        "x^3 + y^3 + z^3 + u^3 + v^3",
        "x*y*z*u + x*y*z*v + x*y*u*v + x*z*u*v + y*z*u*v",
        "x*y*z*u*v",
    ])
    assert rendered == sorted(g.render() for g in expected)


def test_power_sums_lex_minimize_verifies():
    # minimize's membership tests take their GB in degrevlex; in lex this
    # run spends minutes in one Buchberger run
    genset = load_fixture("power_sums", order="lex")
    output, report = simplify(genset, SimplifyConfig(minimize=True, seed=0))
    assert report.verified is True and report.minimized is True
    assert 0 < len(output) <= len(genset.generators)


def test_output_not_worse_than_input():
    genset, runs = simplify_fixture("power_sums")
    output, _, _ = runs[0]
    got = sorted(simplicity_key(g) for g in output)
    orig = sorted(simplicity_key(g) for g in genset.generators)
    assert len(got) <= len(orig)
    for a, b in zip(got, orig):
        assert a <= b


def test_greedy_filter_soundness():
    genset, runs = simplify_fixture("example_sym")
    output, report, _ = runs[0]
    out_set = GeneratorSet(genset.ring, output)
    pool = parse_many(genset.ring, [e for e, _ in report.pool])
    for k, p in enumerate(CHECK_PRIMES):
        field = PrimeField(p)
        rng = random.Random(900 + k)
        for cand in pool:
            assert MembershipContext(out_set, field,
                                     rng).contains(cand) is True


def test_report_provenance_tags():
    genset, runs = simplify_fixture("example_sym")
    output, report, _ = runs[0]
    tags = {tag for _, tag in report.pool}
    assert tags <= {"original", "gb-coefficient", "polynomial"}
    assert "original" in tags and "gb-coefficient" in tags
    doc = report.to_json_dict()
    assert set(doc) == {"input", "rounds", "pool", "output", "verified",
                        "primes", "seed"}
    assert doc["verified"] is True
    assert doc["output"] == [g.render() for g in output]
    assert all(set(r) == {"d", "n_coeffs", "n_evals"} for r in doc["rounds"])
    assert [r["d"] for r in doc["rounds"]] == \
        sorted(r["d"] for r in doc["rounds"])


def test_constant_generators_dropped():
    ring = Ring(("x1",), QQ)
    gs = genset_of(ring, ["5", "x1"])
    output, report = simplify(gs, SimplifyConfig(seed=0))
    assert output == [rf(ring, "x1")]
    assert report.verified is True
