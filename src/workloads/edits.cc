#include "workloads/edits.h"

#include <set>
#include <sstream>

#include "ir/parser.h"
#include "ir/printer.h"
#include "support/common.h"

namespace oha::workloads {

namespace {

/** Function name of a `func name(...) {` line, or empty. */
std::string
funcNameOf(const std::string &line)
{
    if (line.rfind("func ", 0) != 0)
        return {};
    const std::size_t paren = line.find('(');
    if (paren == std::string::npos)
        return {};
    return line.substr(5, paren - 5);
}

/** True for a block-label line (`  label:  ; bN`). */
bool
isLabelLine(const std::string &line)
{
    std::string body = line;
    const std::size_t comment = body.find(';');
    if (comment != std::string::npos)
        body = body.substr(0, comment);
    while (!body.empty() &&
           (body.back() == ' ' || body.back() == '\t'))
        body.pop_back();
    return !body.empty() && body.back() == ':';
}

} // namespace

std::unique_ptr<ir::Module>
editFunctions(const ir::Module &module,
              const std::vector<std::string> &names)
{
    const std::set<std::string> wanted(names.begin(), names.end());
    for (const std::string &name : wanted)
        OHA_ASSERT(module.functionByName(name), "unknown function");

    std::istringstream in(ir::printModule(module));
    std::ostringstream out;
    std::string line;
    // When >0, the current function is being edited and the prologue
    // goes right after its first (entry) block label.
    unsigned pendingRegs = 0;
    bool awaitLabel = false;
    while (std::getline(in, line)) {
        out << line << '\n';
        const std::string name = funcNameOf(line);
        if (!name.empty() && wanted.count(name)) {
            pendingRegs = module.functionByName(name)->numRegs();
            awaitLabel = true;
        } else if (awaitLabel && isLabelLine(line)) {
            const unsigned a = pendingRegs, b = pendingRegs + 1;
            out << "    r" << a << " = alloc 1\n";
            out << "    r" << b << " = alloc 1\n";
            out << "    *r" << a << " = r" << b << '\n';
            awaitLabel = false;
        }
    }
    return ir::parseModule(out.str());
}

std::unique_ptr<ir::Module>
scaleModule(const ir::Module &module, std::size_t copies)
{
    OHA_ASSERT(copies >= 1);
    std::set<std::string> funcNames;
    for (const auto &func : module.functions())
        funcNames.insert(func->name());
    std::set<std::string> globalNames;
    for (const auto &global : module.globals())
        globalNames.insert(global.name);

    const std::string text = ir::printModule(module);
    std::ostringstream out;
    out << text;
    for (std::size_t c = 1; c < copies; ++c) {
        const std::string suffix = "__" + std::to_string(c);
        // Rename the identifier following @p kw when it names a
        // function (the parser resolves `&name` globals-first, so a
        // global shadowing a function name must stay untouched).
        const auto renameAfter = [&](std::string &line,
                                     const std::string &kw) {
            std::size_t at = 0;
            while ((at = line.find(kw, at)) != std::string::npos) {
                const std::size_t start = at + kw.size();
                std::size_t end = start;
                while (end < line.size() &&
                       (std::isalnum(
                            static_cast<unsigned char>(line[end])) ||
                        line[end] == '_'))
                    ++end;
                const std::string name = line.substr(start, end - start);
                if (funcNames.count(name) && !globalNames.count(name))
                    line.insert(end, suffix);
                at = end;
            }
        };
        std::istringstream in(text);
        std::string line;
        bool inFunction = false;
        while (std::getline(in, line)) {
            if (line.rfind("func ", 0) == 0)
                inFunction = true;
            if (!inFunction)
                continue; // shared globals are declared once
            renameAfter(line, "func ");
            renameAfter(line, "call ");
            renameAfter(line, "spawn ");
            renameAfter(line, "&");
            out << line << '\n';
        }
    }
    return ir::parseModule(out.str());
}

std::vector<std::string>
firstFunctionNames(const ir::Module &module, std::size_t count)
{
    std::vector<std::string> names;
    for (const auto &func : module.functions()) {
        if (names.size() >= count)
            break;
        names.push_back(func->name());
    }
    return names;
}

} // namespace oha::workloads
