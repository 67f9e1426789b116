/**
 * @file
 * Environment helpers for the knob tests: a scoped override of one
 * variable, and the value a knob's env twin leaves in a slot.
 */

#ifndef NISQPP_TESTS_SUPPORT_SCOPED_ENV_HH
#define NISQPP_TESTS_SUPPORT_SCOPED_ENV_HH

#include <cstdlib>
#include <string>

#include "engine/knobs.hh"

namespace nisqpp {

/** Set (or, for nullptr, unset) one variable; restore it on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *prior = std::getenv(name)) {
            saved_ = prior;
            hadValue_ = true;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadValue_)
            setenv(name_.c_str(), saved_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::string saved_;
    bool hadValue_ = false;
};

/**
 * What @p knob's env twin, set to @p value (nullptr = unset), leaves
 * in a slot that held @p fallback.
 */
template <class T>
T
envValue(const knobs::Knob<T> &knob, const char *value, T fallback)
{
    ScopedEnv env(knob.env, value);
    knobs::fromEnv(knob, fallback);
    return fallback;
}

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_SCOPED_ENV_HH
