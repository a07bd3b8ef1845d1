#include "rt/lr.h"

namespace patdnn {

std::string
permutationName(LoopPermutation p, bool blocked)
{
    std::string base = p == LoopPermutation::kCoCiHW ? "cocihw" : "cohwci";
    return blocked ? base + "_b" : base;
}

}  // namespace patdnn
