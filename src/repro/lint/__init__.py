"""ktaulint: static analysis and sanitizers for the KTAU reproduction.

The paper's kernel patch enforced its core invariants by convention:
every instrumentation entry has a matching exit on every control path,
event identities are unique, measurement is deterministic enough to
compare across nodes.  This package enforces them by analysis, so a
refactor that silently breaks one is caught at lint time:

* :mod:`repro.lint.balance` — path-sensitive entry/exit pairing proof
  over ``repro.kernel`` / ``repro.core`` (KTAU101-103);
* :mod:`repro.lint.determinism` — wall-clock, unseeded-randomness, and
  set-iteration-order bans over the simulation substrate (KTAU201-204);
* :mod:`repro.lint.registry` — declared-vs-fired instrumentation-point
  cross-reference (KTAU301-304);
* :mod:`repro.lint.api` — ``__all__`` drift (KTAU401);
* :mod:`repro.lint.imports` — the full module dependency graph and the
  architectural layer map: direct and transitive layer violations and
  cycle detection (KTAU402, KTAU601-602);
* :mod:`repro.lint.contexts` — lockdep-flavoured IRQ-context safety
  over a static call graph (:mod:`repro.lint.callgraph`): interrupt
  work never sleeps or context-switches directly (KTAU701-703).

The balance pass has a dynamic twin: ``repro.core.measurement.Ktau``'s
opt-in *strict mode* raises on activation-stack imbalance at run time.
Run the linter with ``python -m repro.lint [paths]
[--format=text|json]`` or ``python -m repro lint``; suppress an
individual finding with a ``# ktaulint: disable=RULE`` comment on the
flagged line.
"""

from repro.lint.engine import LintEngine, ProjectRule, Rule, all_rules
from repro.lint.findings import Finding, Severity

__all__ = ["LintEngine", "Rule", "ProjectRule", "all_rules",
           "Finding", "Severity"]
