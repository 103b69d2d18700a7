/**
 * @file
 * Kept for includers that predate support/json.h (which now holds
 * jsonEscape); new code includes support/json.h directly.
 */

#ifndef TREEGION_SUPPORT_TRACE_H
#define TREEGION_SUPPORT_TRACE_H

#include "support/json.h"

#endif // TREEGION_SUPPORT_TRACE_H
