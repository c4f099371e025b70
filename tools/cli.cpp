#include "cli.hpp"

#include "support/error.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <utility>

namespace mwl::cli {

tool::tool(std::string name, std::string usage)
    : name_(std::move(name)), usage_(std::move(usage))
{
}

void tool::flag(const std::string& name, bool& target)
{
    flag(name, [&target] { target = true; });
}

void tool::flag(const std::string& name, std::function<void()> on)
{
    options_.push_back(
        {name, false, [on = std::move(on)](const std::string&) { on(); }});
}

void tool::value(const std::string& name, int& target, int lo, int hi)
{
    value(name, [&target, lo, hi](const std::string& text) {
        const int v = parse_int_checked(text);
        if (v < lo || v > hi) {
            throw precondition_error("numeric value out of range '" + text +
                                     "'");
        }
        target = v;
    });
}

void tool::value(const std::string& name,
                 std::function<void(const std::string&)> on)
{
    options_.push_back({name, true, std::move(on)});
}

void tool::positional(std::function<void(const std::string&)> on)
{
    positional_ = std::move(on);
}

void tool::parse(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage_;
            std::exit(0);
        }
        const option* match = nullptr;
        for (const option& o : options_) {
            if (o.name == arg) {
                match = &o;
            }
        }
        if (match == nullptr) {
            const bool is_option = arg.size() > 1 && arg[0] == '-';
            if (is_option || !positional_) {
                fail("unknown option " + arg);
            }
            positional_(arg);
            continue;
        }
        std::string text;
        if (match->takes_value) {
            if (i + 1 >= argc) {
                fail("missing value for " + arg);
            }
            text = argv[++i];
        }
        try {
            match->apply(text);
        } catch (const error& e) {
            fail("bad value for " + arg + ": " + e.what());
        }
    }
}

void tool::fail(const std::string& message) const
{
    std::cerr << name_ << ": " << message << '\n' << usage_;
    std::exit(2);
}

bool tool::write_json(const std::string& path, const std::string& json,
                      std::ostream& report) const
{
    if (path == "-") {
        std::cout << json << '\n';
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << name_ << ": cannot write " << path << '\n';
        return false;
    }
    out << json << '\n';
    report << "json written to " << path << '\n';
    return true;
}

std::ostream& report_stream(const std::string& json_path)
{
    return json_path == "-" ? std::cerr : std::cout;
}

input::input(const std::string& path)
{
    std::ifstream file;
    if (path != "-") {
        file.open(path);
        if (!file) {
            return;
        }
    }
    std::istream& in = path == "-" ? std::cin : file;
    text_.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    opened_ = true;
}

} // namespace mwl::cli
