"""E8-R — adversarial robustness (degradation curve, new figure).

Sweeps the colluding-spammer fraction (0% → 50%) with the quality-
control loop off and on. The on rows run the latent-ability trust
model (joint member/truth estimation, ``repro.estimation.latent``) — the
gold-probe loop it replaced scored members against the poisonable
crowd aggregate and turned net-negative under heavy collusion. Three
claims are asserted:

- **graceful degradation** — with the loop off, quality falls as the
  spammer fraction grows, but the session always completes;
- **net-positive everywhere** — at *every* swept fraction, enabling
  the defence must not cost F1 (the regression bar that the poisoned
  gold loop failed); at 0% the two rows must match exactly, because a
  clean quality-enabled session is byte-identical to a disabled one;
- **recovery floor** — at a 30% colluder mix the defence must claw
  back at least half of the F1 lost to the attack.
"""

from repro.eval import e8r_robustness, format_experiment, run_variants

from conftest import run_once

FRACTIONS = ("00", "10", "30", "50")


def final_f1(results, label):
    return results[label].curve.final().f1


def test_e8r_robustness_degradation(benchmark, scale):
    base, variants = e8r_robustness(scale)

    def run():
        return run_variants(base, variants)

    results = run_once(benchmark, run)
    print()
    print(format_experiment(f"E8-R: adversarial robustness ({scale})", results))

    # Every cell of the sweep completed and produced a curve.
    assert set(results) == set(variants)

    clean = final_f1(results, "spam_00_q_off")
    poisoned = final_f1(results, "spam_30_q_off")
    defended = final_f1(results, "spam_30_q_on")
    assert clean > 0.0, "clean baseline found nothing; world too hard"

    # Graceful degradation: heavy spam hurts the undefended miner.
    assert poisoned <= clean

    # Net-positive everywhere: turning the defence on must never cost
    # F1, at any collusion level. This is the bar the gold-probe loop
    # failed — colluder-settled rules poisoned the probes' reference
    # aggregate and the defense went net-negative at scale. The latent
    # model has no reference to poison, so the bar is CI-enforced at
    # the benchmark's running scale, not just smoke.
    for fraction in FRACTIONS:
        off = final_f1(results, f"spam_{fraction}_q_off")
        on = final_f1(results, f"spam_{fraction}_q_on")
        assert on >= off, (
            f"quality loop hurt the {fraction}% session: "
            f"on {on:.3f} < off {off:.3f}"
        )

    # A clean quality-enabled session is byte-identical to a disabled
    # one (the all-trust-1.0 fast path), so at 0% the rows must tie
    # exactly, not just approximately.
    assert final_f1(results, "spam_00_q_on") == clean

    # The recovery floor: at a 30% colluder mix the defence must claw
    # back at least half of the lost F1.
    lost = clean - poisoned
    recovered = defended - poisoned
    if lost > 0.0:
        assert recovered >= 0.5 * lost, (
            f"quarantine recovered {recovered:.3f} of {lost:.3f} lost F1 "
            f"(clean {clean:.3f}, poisoned {poisoned:.3f}, defended "
            f"{defended:.3f}) - below the 50% floor"
        )
