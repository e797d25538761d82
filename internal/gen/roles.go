package gen

import (
	"fmt"
	"math/rand/v2"

	"donorsense/internal/organ"
)

// Role models the user classes the paper's conclusion proposes to
// distinguish: "health care practitioners, donors, waiting-list
// candidates, organ donation advocacy agencies, or simply ... different
// behaviors towards organ donation". Each role conditions the user's
// organ profile, activity, and language, and so shapes the tweet text
// and the generator's random stream. No analysis reads the roles back:
// the paper characterizes users only through their organ attention.
type Role int

// The user roles.
const (
	// GeneralPublic tweets occasionally about whatever organ touched
	// their life; the base behaviour.
	GeneralPublic Role = iota
	// Patient is on (or near) a waiting list: single-organ focus,
	// personal language, somewhat elevated activity.
	Patient
	// DonorFamily posts memorials about one organ, rarely.
	DonorFamily
	// Practitioner is a clinician: multi-organ interest, clinical
	// vocabulary, regular activity.
	Practitioner
	// Advocacy is an organization account: very high activity, broad
	// all-organ attention, campaign language with hashtags.
	Advocacy
)

// NumRoles is the number of user roles.
const NumRoles = 5

// String returns the role name.
func (r Role) String() string {
	switch r {
	case GeneralPublic:
		return "general-public"
	case Patient:
		return "patient"
	case DonorFamily:
		return "donor-family"
	case Practitioner:
		return "practitioner"
	case Advocacy:
		return "advocacy"
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// roleShares is the population mix. Organizations are rare but loud;
// most accounts are ordinary people.
var roleShares = [NumRoles]float64{
	GeneralPublic: 0.72,
	Patient:       0.12,
	DonorFamily:   0.08,
	Practitioner:  0.06,
	Advocacy:      0.02,
}

// roleTraits bundles the behavioural knobs a role sets.
type roleTraits struct {
	// activityMult scales the power-law tweet count.
	activityMult float64
	// forceSecondary / forbidSecondary override the secondary-interest
	// coin flip.
	forceSecondary  bool
	forbidSecondary bool
	// broadProfile makes the per-tweet organ nearly uniform over all six
	// organs (advocacy accounts campaign for donation generally).
	broadProfile bool
	// clinicalBias is the probability a tweet uses the clinical surface
	// form (renal, hepatic, ...) instead of the lay word.
	clinicalBias float64
	// hashtagBias is the probability a tweet gains a campaign hashtag.
	hashtagBias float64
}

// The multipliers are normalized so the population mean stays 1: the
// Table I tweets-per-user figure (1.88) must not drift when roles are
// enabled (Σ share·mult ≈ 1).
var traits = [NumRoles]roleTraits{
	GeneralPublic: {activityMult: 0.82, clinicalBias: 0.04, hashtagBias: 0.10},
	Patient:       {activityMult: 1.3, forbidSecondary: true, clinicalBias: 0.10, hashtagBias: 0.12},
	DonorFamily:   {activityMult: 0.6, forbidSecondary: true, clinicalBias: 0.02, hashtagBias: 0.08},
	Practitioner:  {activityMult: 1.8, forceSecondary: true, clinicalBias: 0.45, hashtagBias: 0.05},
	Advocacy:      {activityMult: 5.0, broadProfile: true, clinicalBias: 0.06, hashtagBias: 0.55},
}

// sampleRole draws a role from the population mix.
func sampleRole(r *rand.Rand) Role {
	x := r.Float64()
	for role, share := range roleShares {
		x -= share
		if x <= 0 {
			return Role(role)
		}
	}
	return GeneralPublic
}

// campaignHashtags decorate advocacy (and some personal) tweets. None of
// the tags tokenizes into a Subject word, so they never add organ
// mentions.
var campaignHashtags = []string{
	"#DonateLife", "#OrganDonation", "#BeADonor", "#GiftOfLife",
	"#RegisterToday", "#DonationSavesLives",
}

// roleTweetOrgan picks the organ for one tweet given the profile and
// role.
func roleTweetOrgan(r *rand.Rand, p *Profile, cfg Config) organ.Organ {
	if traits[p.Role].broadProfile {
		// Advocacy accounts campaign across every organ, weighted like
		// the national conversation.
		return organ.Organ(pickWeighted(r, basePopularity[:]))
	}
	o := p.Primary
	if p.HasSecondary && r.Float64() < cfg.SecondaryDrawRate {
		o = p.Secondary
	}
	return o
}
