#include "layer_trace.h"

namespace perfbench {

void
set_phase(Phase)
{
}

void
reset_layers()
{
}

std::map<std::string, double>
read_layers(Phase)
{
    return {};
}

}  // namespace perfbench
