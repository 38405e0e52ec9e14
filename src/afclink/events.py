"""Labels of the click records shared by every stage and by events.csv.

Channels are named by their role: SIGNAL_794 is the short-wavelength pair
member, IDLER_1535 the telecom member; CHANNELS lists both, in that order.
Timestamps are integer picoseconds from the start of the run.  The order of
BINS and ORIGINS fixes the integer codes the simulation engine stores.
"""

SIGNAL_794 = "SIGNAL_794"
IDLER_1535 = "IDLER_1535"
CHANNELS = (SIGNAL_794, IDLER_1535)

BIN_EARLY = "EARLY"
BIN_LATE = "LATE"
BIN_SUPERPOSED = "SUPERPOSED"
BIN_NONE = "NONE"  # dark counts carry no time-bin content
BINS = (BIN_EARLY, BIN_LATE, BIN_SUPERPOSED, BIN_NONE)

ORIGIN_PAIR = "PAIR"
ORIGIN_DARK = "DARK"
ORIGIN_SPURIOUS_ECHO = "SPURIOUS_ECHO"
ORIGINS = (ORIGIN_PAIR, ORIGIN_DARK, ORIGIN_SPURIOUS_ECHO)

OUTCOME_NONE = "NONE"
OUTCOME_TRANSMITTED = "TRANSMITTED"


def recalled_token(echo_index: int) -> str:
    return f"RECALLED_{echo_index}"
