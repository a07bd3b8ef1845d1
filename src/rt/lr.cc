#include "rt/lr.h"

#include <sstream>

namespace patdnn {

std::string
permutationName(LoopPermutation p, bool blocked)
{
    std::string base = p == LoopPermutation::kCoCiHW ? "cocihw" : "cohwci";
    return blocked ? base + "_b" : base;
}

std::string
LayerwiseRep::str() const
{
    std::ostringstream out;
    out << "device: [" << device << "]\n";
    out << "layers:\n";
    out << "  - name: \"" << conv.name << "\"\n";
    out << "    storage: \"" << storage << "\"\n";
    out << "    pattern: {\"type\": [";
    for (size_t i = 0; i < pattern_types.size(); ++i) {
        out << pattern_types[i];
        if (i + 1 < pattern_types.size())
            out << ", ";
    }
    out << "], \"layout\": " << layout << "}\n";
    out << "    tuning:  {\"tile\": [" << tuning.tile_oh << "], \"tasks\": "
        << tuning.filters_per_task << ", \"permute\": "
        << permutationName(tuning.permute, tuning.blocked) << "}\n";
    out << "    info:    {\"strides\": [" << conv.stride << ", " << conv.stride
        << "], \"dilations\": [" << conv.dilation << ", " << conv.dilation << "]}\n";
    return out.str();
}

}  // namespace patdnn
