// ModelSentinel: the one-shot name of sentinel::StreamSentinel
// (sentinel/stream.hpp), kept so callers written against the one-shot
// API (ingest_baseline*, check, check_file) compile unchanged.
#pragma once

#include "sentinel/stream.hpp"

namespace tetra::sentinel {

using ModelSentinel = StreamSentinel;

}  // namespace tetra::sentinel
