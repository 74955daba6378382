// Page-level constants shared by the pager and the B+tree.
#pragma once

#include <cstdint>

namespace bp::storage {

using PageId = uint32_t;

// Page 0 is the database header; 0 therefore doubles as the "no page"
// sentinel in tree child pointers and freelist links.
constexpr PageId kNoPage = 0;

constexpr uint32_t kPageSize = 4096;

constexpr uint32_t kDbMagic = 0x42504442;  // "BPDB"
constexpr uint32_t kDbVersion = 1;

}  // namespace bp::storage
