"""Central units of integral group rings of finite groups.

Shoda-pair classification, primitive central idempotents of the rational
group algebra, Bass-type unit constructions, and the rank of the group of
central units of ZG with an independent conjugacy-class oracle.
"""

__version__ = "0.1.0"

from .catalog import catalog, get_group
from .cyclotomic import euler_phi
from .groupalgebra import QGElement, epsilon, hat
from .groups import (
    FiniteGroup,
    Subgroup,
    group_from_cayley,
    group_from_pc_presentation,
    group_from_permutations,
    subgroup_closure,
)
from .rank import RankReport, RankTerm, rank_oracle, rank_total, verify_center_degree
from .shoda import (
    LinearCharacter,
    ShodaPair,
    StrongInductiveChain,
    complete_irredundant_set,
    find_strong_inductive_chain,
    shoda_character,
)
from .units import (
    BassSpec,
    Unit,
    bass_central_units,
    bass_specs_for,
    bass_unit,
    c_central_unit,
    gen_bass_unit,
    log_rank_witness,
    z_central_unit,
)
