"""Physical-layer rate of a link channel or of two links in the switch."""

from __future__ import annotations

from ..channels import ChannelModel, holevo_information, switch_holevo_from_ptms


def phy_effective_rate(first: ChannelModel, second: ChannelModel | None = None) -> float:
    """Holevo rate in bits per use of ``first``, or of ``first`` and
    ``second`` traversed in superposed order through the switch."""
    if second is None:
        return holevo_information(first)
    return switch_holevo_from_ptms(first.ptm, second.ptm)
