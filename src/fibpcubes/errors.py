class SizeLimitError(Exception):
    """A request exceeds a size limit; raised before its memory is allocated.

    The limits are the vertex limit of the string enumeration, the distance
    sweep limit of the Wiener and Mostar oracles, and an optional bound on n.
    """
