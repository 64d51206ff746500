#ifndef YOUTOPIA_UTIL_HASH_H_
#define YOUTOPIA_UTIL_HASH_H_

#include <cstddef>

namespace youtopia {

// Combine a hash value into a running seed (boost::hash_combine style, with
// a 64-bit golden-ratio constant).
inline void HashCombine(size_t& seed, size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

}  // namespace youtopia

#endif  // YOUTOPIA_UTIL_HASH_H_
