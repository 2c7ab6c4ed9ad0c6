#ifndef RWDT_COMMON_FLAT_INTERNER_H_
#define RWDT_COMMON_FLAT_INTERNER_H_

#include "common/interner.h"

namespace rwdt {

/// Former name of `Interner`, kept for includers that still use it.
using FlatInterner = Interner;

}  // namespace rwdt

#endif  // RWDT_COMMON_FLAT_INTERNER_H_
