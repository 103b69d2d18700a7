#include "ir/opcode.h"

#include <array>

#include "support/logging.h"

namespace treegion::ir {

namespace {

constexpr size_t kNumOpcodes = static_cast<size_t>(Opcode::NumOpcodes);

// Order must match the Opcode enum.
const std::array<OpcodeInfo, kNumOpcodes> kInfo = {{
    // name   lat  br     ld     st     dsts srcs
    {"MOVI",  1, false, false, false, 1, 1},
    {"MOV",   1, false, false, false, 1, 1},
    {"COPY",  1, false, false, false, 1, 1},
    {"ADD",   1, false, false, false, 1, 2},
    {"SUB",   1, false, false, false, 1, 2},
    {"MUL",   1, false, false, false, 1, 2},
    {"AND",   1, false, false, false, 1, 2},
    {"OR",    1, false, false, false, 1, 2},
    {"XOR",   1, false, false, false, 1, 2},
    {"SHL",   1, false, false, false, 1, 2},
    {"SHR",   1, false, false, false, 1, 2},
    {"REM",   1, false, false, false, 1, 2},
    {"FADD",  1, false, false, false, 1, 2},
    {"FMUL",  3, false, false, false, 1, 2},
    {"FDIV",  9, false, false, false, 1, 2},
    {"LD",    2, false, true,  false, 1, 2},
    {"ST",    1, false, false, true,  0, 3},
    {"CMPP",  1, false, false, false, 2, 2},
    {"PSET",  1, false, false, false, 1, 0},
    {"PCLR",  1, false, false, false, 1, 0},
    {"CMPPA", 1, false, false, false, 1, 2},
    {"CMPPO", 1, false, false, false, 1, 2},
    {"PBR",   1, false, false, false, 1, 0},
    {"BRU",   1, true,  false, false, 0, 0},
    {"BRCT",  1, true,  false, false, 0, 1},
    {"BRCF",  1, true,  false, false, 0, 1},
    {"MWBR",  1, true,  false, false, 0, 1},
    {"RET",   1, true,  false, false, 0, 1},
}};

const std::array<std::string_view, 6> kCmpNames = {"EQ", "NE", "LT",
                                                   "LE", "GT", "GE"};

} // namespace

const OpcodeInfo &
opcodeInfo(Opcode opcode)
{
    const auto idx = static_cast<size_t>(opcode);
    TG_ASSERT(idx < kNumOpcodes);
    return kInfo[idx];
}

std::string_view
opcodeName(Opcode opcode)
{
    return opcodeInfo(opcode).name;
}

std::string_view
cmpKindName(CmpKind kind)
{
    return kCmpNames[static_cast<size_t>(kind)];
}

namespace {

/**
 * @p name packed into one word (bytes little-endian, length in the top
 * byte) so a mnemonic lookup is integer compares; 0 for names longer
 * than seven bytes, which no opcode has.
 */
uint64_t
packMnemonic(std::string_view name)
{
    if (name.size() > 7)
        return 0;
    uint64_t key = static_cast<uint64_t>(name.size()) << 56;
    for (size_t i = 0; i < name.size(); ++i)
        key |= static_cast<uint64_t>(static_cast<unsigned char>(name[i]))
               << (8 * i);
    return key;
}

} // namespace

bool
parseOpcode(std::string_view name, Opcode &out)
{
    static const std::array<uint64_t, kNumOpcodes> kKeys = [] {
        std::array<uint64_t, kNumOpcodes> keys{};
        for (size_t i = 0; i < kNumOpcodes; ++i)
            keys[i] = packMnemonic(kInfo[i].name);
        return keys;
    }();
    const uint64_t key = packMnemonic(name);
    for (size_t i = 0; i < kNumOpcodes; ++i) {
        if (kKeys[i] == key) {
            out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

bool
parseCmpKind(std::string_view name, CmpKind &out)
{
    for (size_t i = 0; i < kCmpNames.size(); ++i) {
        if (kCmpNames[i] == name) {
            out = static_cast<CmpKind>(i);
            return true;
        }
    }
    return false;
}

CmpKind
negateCmpKind(CmpKind kind)
{
    switch (kind) {
      case CmpKind::EQ: return CmpKind::NE;
      case CmpKind::NE: return CmpKind::EQ;
      case CmpKind::LT: return CmpKind::GE;
      case CmpKind::GE: return CmpKind::LT;
      case CmpKind::LE: return CmpKind::GT;
      case CmpKind::GT: return CmpKind::LE;
    }
    TG_PANIC("bad CmpKind");
}

} // namespace treegion::ir
