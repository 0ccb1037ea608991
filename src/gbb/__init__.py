"""Group-buying market solver with volume-triggered bundle discounts.

Computes welfare-maximizing allocations, rational and stabilizing group
transfers, fair per-buyer prices, and certifies the result.
"""

from .model import (
    Allocation,
    Buyer,
    BuyerId,
    DiscountTier,
    GroupPartition,
    ItemType,
    Market,
    Money,
    NULL_VENDOR,
    ValidationReport,
    Vendor,
    VendorId,
    VendorTuple,
    best_alternative,
    demand_vectors,
    group_partition,
    market_prices,
    triggered,
    utilities,
    validate_market,
)
from .flow import Flow, FlowNetwork, NetworkBuilder, max_flow, min_cost_max_flow
from .swm import (
    BudgetExceeded,
    SwmResult,
    brute_force_swm,
    partition_count,
    solve_swm,
)
from .transfers import (
    GroupTransfers,
    PriceVector,
    SumMismatch,
    TransferMatrix,
    Unstabilizable,
    fair_buyer_transfers,
    greedy_match,
    prices_from_transfers,
    solve_group_transfers,
)
from .verify import CertificateReport, certify, surplus_totals

__version__ = "0.1.0"
