"""Labels of the click records shared by every stage and by events.csv.

Channels are named by their role: SIGNAL_794 is the short-wavelength pair
member, IDLER_1535 the telecom member; CHANNELS lists both, in that order.
Timestamps are integer picoseconds from the start of the run.  The
simulation engine's per-code table holds these tokens as they are written.
"""

SIGNAL_794 = "SIGNAL_794"
IDLER_1535 = "IDLER_1535"
CHANNELS = (SIGNAL_794, IDLER_1535)

BIN_EARLY = "EARLY"
BIN_LATE = "LATE"
BIN_SUPERPOSED = "SUPERPOSED"
BIN_NONE = "NONE"  # dark counts carry no time-bin content

ORIGIN_PAIR = "PAIR"
ORIGIN_DARK = "DARK"
ORIGIN_SPURIOUS_ECHO = "SPURIOUS_ECHO"

OUTCOME_NONE = "NONE"
OUTCOME_TRANSMITTED = "TRANSMITTED"


def recalled_token(echo_index: int) -> str:
    return f"RECALLED_{echo_index}"
