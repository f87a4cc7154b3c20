#pragma once
// Factories for the built-in codec backends. Internal to src/codec: the
// registry's table calls each once on first use; everyone else goes through
// BackendRegistry::make() by name.

#include <memory>

namespace swc::codec {

class CodecBackend;

// The paper's pipeline: Wrap8 Haar + threshold + NBits/BitMap packing.
// Bit-exact with the engine's pre-registry hardwired path.
std::unique_ptr<CodecBackend> make_haar_backend();

// Multi-level LeGall 5/3 in wrap-mod-256 byte arithmetic (lossless at
// threshold 0), reusing the SIMD legall lifting kernels.
std::unique_ptr<CodecBackend> make_legall53_backend();

// Microshift-style closed-loop vertical DPCM with a bit-depth-shift
// quantizer (shift 0 at threshold 0 => lossless).
std::unique_ptr<CodecBackend> make_microshift_backend();

}  // namespace swc::codec
