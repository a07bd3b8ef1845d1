#include "rt/lr.h"

namespace patdnn {

std::string
permutationName(LoopPermutation p)
{
    return p == LoopPermutation::kCoCiHW ? "cocihw" : "cohwci";
}

}  // namespace patdnn
