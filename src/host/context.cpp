#include "host/context.hpp"

namespace xd::host {

Context::Context(const ContextConfig& cfg)
    : cfg_(cfg), runtime_(std::make_unique<Runtime>(cfg)) {}

}  // namespace xd::host
