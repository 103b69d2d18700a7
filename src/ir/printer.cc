#include "ir/printer.h"

#include <ostream>

#include "support/string_utils.h"

namespace treegion::ir {

using support::appendG6;
using support::appendInt;

void
appendFunction(std::string &out, const Function &fn)
{
    out += "func @";
    out += fn.name();
    out += " entry=bb";
    appendInt(out, fn.entry());
    out += " gprs=";
    appendInt(out, fn.numGprs());
    out += " preds=";
    appendInt(out, fn.numPreds());
    out += " {\n";
    fn.forEachBlock([&](const BasicBlock &b) {
        out += "  block bb";
        appendInt(out, b.id());
        out += " weight=";
        appendG6(out, b.weight());
        if (!b.edgeWeights().empty()) {
            out += " edges=[";
            for (size_t i = 0; i < b.edgeWeights().size(); ++i) {
                if (i)
                    out += ',';
                appendG6(out, b.edgeWeights()[i]);
            }
            out += ']';
        }
        out += " {\n";
        for (const Op &op : b.ops()) {
            out += "    ";
            op.appendTo(out);
            out += '\n';
        }
        out += "  }\n";
    });
    out += "}\n";
}

void
appendModule(std::string &out, const Module &mod)
{
    out += "module ";
    out += mod.name();
    out += " mem=";
    appendInt(out, mod.memWords());
    out += '\n';
    for (const auto &fn : mod.functions())
        appendFunction(out, *fn);
}

void
printFunction(std::ostream &os, const Function &fn)
{
    std::string out;
    appendFunction(out, fn);
    os << out;
}

void
printModule(std::ostream &os, const Module &mod)
{
    os << moduleToString(mod);
}

std::string
moduleToString(const Module &mod)
{
    std::string out;
    appendModule(out, mod);
    return out;
}

} // namespace treegion::ir
