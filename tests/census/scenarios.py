"""Write the scenario files the census runs through ``python -m repro.chaos``.

Run in the census's scratch directory; it writes three chaos specs as
JSON (see docs/CHAOS.md):

* ``builtin.json`` -- the ``partition-heal`` builtin's spec, as is;
* ``aggregated.json`` -- a clean run on an aggregated population small
  enough that agents retire, so the checker's RETIRED phase runs;
* ``attacks.json`` -- the attacker kinds no builtin or generated
  scenario draws: a ``silent`` user, and ``equivocate`` and
  ``targeted-dos`` windows that close inside the run.
"""

import dataclasses
import json

from repro.chaos import FaultAction, clean_scenario, partition_heal_scenario
from repro.node.config import PopulationConfig


def _write(name: str, spec) -> None:
    with open(name, "w", encoding="utf-8") as handle:
        json.dump(spec.to_json(), handle, indent=2)


_write("builtin.json", partition_heal_scenario())

churn = clean_scenario(num_users=150, seed=2)
_write("aggregated.json", dataclasses.replace(churn, config=dataclasses.replace(
    churn.config, initial_balance=1,
    params=dataclasses.replace(churn.config.params, tau_proposer=3,
                               tau_step=8, tau_final=12),
    population=PopulationConfig(mode="aggregated", always_on_core=8,
                                steps_ahead=6))))

_write("attacks.json", dataclasses.replace(clean_scenario(num_users=16), faults=(
    FaultAction("silent", 0.0, nodes=(1,)),
    FaultAction("equivocate", 0.0, end=3.0, nodes=(2,)),
    FaultAction("targeted-dos", 0.0, end=3.0, nodes=(3, 4), extra_delay=0.5),
)))
