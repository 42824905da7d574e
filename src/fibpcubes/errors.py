class SizeLimitError(Exception):
    """A request exceeds a size limit; raised before the work is started.

    The limits are the vertex limit of the string enumeration, the distance
    sweep limit of the Wiener and Mostar oracles, the support limit of the
    cube census, and an optional bound on n.
    """
